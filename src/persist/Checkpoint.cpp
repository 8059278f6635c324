//===- persist/Checkpoint.cpp - Atomic snapshot commit + recovery ---------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "persist/Checkpoint.h"

#include <utility>

using namespace regmon::persist;

CheckpointManager::CheckpointManager(std::string Dir) : Root(std::move(Dir)) {
  Valid = ensureDir(Root);
}

std::string CheckpointManager::snapshotPath() const {
  return Root + "/snapshot.bin";
}
std::string CheckpointManager::prevSnapshotPath() const {
  return Root + "/snapshot.prev.bin";
}
std::string CheckpointManager::tmpSnapshotPath() const {
  return Root + "/snapshot.tmp";
}
std::string CheckpointManager::journalPath() const {
  return Root + "/journal.wal";
}

void CheckpointManager::noteCommitFailure(std::uint64_t CompactThroughSeq) {
  ++Counters.CommitFailures;
  if (Obs) {
    obs::addTo(Obs->CommitFailures);
    obs::recordEvent(Obs->Tracer, obs::EventKind::CheckpointCommitFailed,
                     Obs->Stream, 0, CompactThroughSeq);
  }
}

bool CheckpointManager::commitSnapshot(std::span<const std::uint8_t> Encoded,
                                       std::uint64_t CompactThroughSeq) {
  if (!Valid) {
    noteCommitFailure(CompactThroughSeq);
    return false;
  }
  // Compaction rewrites the journal file underneath the writer; release it
  // (appendJournal reopens on demand).
  Writer.close();

  // Step 1: the complete new snapshot lands under a scratch name. A crash
  // here leaves a torn tmp that recovery never reads.
  {
    FileSink Tmp(tmpSnapshotPath(), /*Append=*/false, Injected);
    if (!Tmp.write(Encoded) || !Tmp.close()) {
      noteCommitFailure(CompactThroughSeq);
      return false;
    }
  }
  // Step 2: demote the current snapshot to the fallback rung. A crash
  // after this leaves no snapshot.bin; recovery falls to prev + journal.
  if (fileSize(snapshotPath()) &&
      !renameFile(snapshotPath(), prevSnapshotPath(), Injected)) {
    noteCommitFailure(CompactThroughSeq);
    return false;
  }
  // Step 3: promote the tmp atomically; this is the commit point.
  if (!renameFile(tmpSnapshotPath(), snapshotPath(), Injected)) {
    noteCommitFailure(CompactThroughSeq);
    return false;
  }
  ++Counters.SnapshotsCommitted;
  if (Obs) {
    obs::addTo(Obs->SnapshotsCommitted);
    obs::recordEvent(Obs->Tracer, obs::EventKind::CheckpointCommitted,
                     Obs->Stream, 0, CompactThroughSeq,
                     static_cast<double>(Encoded.size()));
  }
  // Step 4: drop journal records already covered by the *fallback* rung.
  // Failure (or a crash) here is harmless -- extra records are skipped by
  // sequence number on replay -- so it does not fail the commit.
  compactJournal(CompactThroughSeq);
  return true;
}

bool CheckpointManager::compactJournal(std::uint64_t ThroughSeq) {
  const auto Bytes = readFileBytes(journalPath());
  if (!Bytes)
    return true;
  // Offset of the first record past ThroughSeq. Sequence numbers strictly
  // increase, so everything from there to the end of the valid prefix is
  // the kept suffix: already framed and CRC'd, copied as is.
  std::uint64_t KeepFrom = 0;
  const LogScan Scan =
      scanLog(*Bytes, JournalFormat, [&](const LogRecord &Rec) {
        if (Rec.Kind != JournalBatchKind)
          return RecordVerdict::Unknown;
        if (KeepFrom == 0 && Rec.Seq > ThroughSeq)
          KeepFrom = Rec.Offset;
        return RecordVerdict::Accept;
      });
  if (Scan.refused())
    return false; // never rewrite bytes this build cannot read
  if (KeepFrom == 0)
    KeepFrom = Scan.ValidBytes;
  ByteWriter Header;
  encodeLogHeader(Header, JournalFormat);
  const std::span<const std::uint8_t> Kept =
      std::span<const std::uint8_t>(*Bytes).subspan(
          KeepFrom, Scan.ValidBytes - KeepFrom);
  const std::string Tmp = Root + "/journal.tmp";
  {
    FileSink Sink(Tmp, /*Append=*/false, Injected);
    if (!Sink.write(Header.data()) || !Sink.write(Kept) || !Sink.close())
      return false;
  }
  return renameFile(Tmp, journalPath(), Injected);
}

std::optional<std::vector<SnapshotSection>>
CheckpointManager::loadRung(Rung R) {
  const std::string Path =
      R == Rung::Current ? snapshotPath() : prevSnapshotPath();
  const auto Data = readFileBytes(Path);
  if (!Data) {
    Counters.LastError = SnapshotError::FileMissing;
    return std::nullopt;
  }
  ++Counters.LoadAttempts;
  std::vector<SnapshotSection> Sections;
  const SnapshotError Err = decodeSnapshot(*Data, Sections);
  if (Err != SnapshotError::None) {
    ++Counters.CorruptSnapshots;
    if (Obs)
      obs::addTo(Obs->CorruptSnapshots);
    Counters.LastError = Err;
    return std::nullopt;
  }
  Counters.LastError = SnapshotError::None;
  return Sections;
}

void CheckpointManager::noteDecodeFailure() {
  ++Counters.CorruptSnapshots;
  if (Obs)
    obs::addTo(Obs->CorruptSnapshots);
}

void CheckpointManager::noteColdStart() {
  ++Counters.ColdStarts;
  if (Obs) {
    obs::addTo(Obs->ColdStarts);
    obs::recordEvent(Obs->Tracer, obs::EventKind::CheckpointColdStart,
                     Obs->Stream, 0, 0);
  }
}

void CheckpointManager::noteFallbackUsed() {
  ++Counters.FallbacksUsed;
  if (Obs) {
    obs::addTo(Obs->FallbacksUsed);
    obs::recordEvent(Obs->Tracer, obs::EventKind::CheckpointFallback,
                     Obs->Stream, 0, 0);
  }
}

bool CheckpointManager::appendJournal(std::uint64_t Seq,
                                      std::span<const std::uint8_t> Payload) {
  if (!Valid)
    return false;
  if (!Writer.ok() && !Writer.open(journalPath(), JournalFormat, Injected))
    return false;
  return Writer.append(Seq, JournalBatchKind, Payload);
}

JournalResult
CheckpointManager::replayAndRepair(std::uint64_t SkipThroughSeq,
                                   const JournalReplayFn &Replay) {
  (void)Writer.close();
  std::uint64_t Replayed = 0;
  std::uint64_t Skipped = 0;
  const LogScan Scan =
      scanLogFile(journalPath(), JournalFormat, [&](const LogRecord &Rec) {
        if (Rec.Kind != JournalBatchKind)
          return RecordVerdict::Unknown;
        if (Rec.Seq <= SkipThroughSeq) {
          ++Skipped;
          return RecordVerdict::Accept;
        }
        const RecordVerdict V = Replay(Rec.Seq, Rec.Payload);
        if (V == RecordVerdict::Accept)
          ++Replayed;
        return V;
      });
  const JournalResult Res{Scan, Replayed, Skipped};
  Counters.JournalRecordsReplayed += Replayed;
  Counters.JournalRecordsSkipped += Skipped;
  if (Obs) {
    obs::addTo(Obs->JournalRecordsReplayed, Replayed);
    obs::addTo(Obs->JournalRecordsSkipped, Skipped);
    if (!Res.Missing)
      obs::recordEvent(Obs->Tracer, obs::EventKind::JournalReplayed,
                       Obs->Stream, 0, SkipThroughSeq,
                       static_cast<double>(Replayed));
  }
  // A torn tail is cut so new records extend a well-formed journal (an
  // empty file gets a fresh header on the next append); bytes this build
  // cannot apply are someone else's acknowledged records, never cut.
  const RepairOutcome Repair = repairLog(journalPath(), Res, nullptr);
  if (Repair == RepairOutcome::Refused)
    ++Counters.JournalRefusals;
  if (Repair == RepairOutcome::Repaired || Repair == RepairOutcome::Failed) {
    ++Counters.JournalTornTails;
    if (Obs)
      obs::addTo(Obs->JournalTornTails);
  }
  if (Repair == RepairOutcome::Repaired) {
    ++Counters.JournalRepairs;
    if (Obs)
      obs::addTo(Obs->JournalRepairs);
  }
  return Res;
}
