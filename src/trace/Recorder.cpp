//===- trace/Recorder.cpp - Crash-safe flight recorder --------------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "trace/Recorder.h"

using namespace regmon;
using namespace regmon::trace;

TraceRecorder::~TraceRecorder() { close(); }

TraceRecorder::OpenResult TraceRecorder::open(const std::string &Path,
                                              persist::CrashPoint *Crash) {
  close();
  OpenResult Out;
  NextSeq = 1;
  RecordsN = 0;
  BytesN = 0;
  FailuresN = 0;
  const ScanResult Scan = scanTraceFile(Path);
  const persist::RepairOutcome Repair = persist::repairLog(Path, Scan, Crash);
  if (Repair == persist::RepairOutcome::Refused || // foreign data
      Repair == persist::RepairOutcome::Failed)
    return Out;
  Out.Repaired = Repair == persist::RepairOutcome::Repaired;
  // After repair the file holds exactly the valid prefix; an empty one
  // (missing, never opened, or a torn header) gets a fresh header.
  if (!Log.open(Path, TraceFormat, Crash))
    return Out;
  Out.Created = Scan.ValidBytes == 0;
  if (Out.Created)
    BytesN = persist::LogHeaderBytes;
  NextSeq = Scan.LastSeq + 1;
  Out.Ok = true;
  Out.ValidBytes = Out.Created ? persist::LogHeaderBytes : Scan.ValidBytes;
  Out.NextSeq = NextSeq;
  return Out;
}

bool TraceRecorder::ok() const { return Log.ok(); }

bool TraceRecorder::close() { return Log.close(); }

std::uint64_t TraceRecorder::append(RecordKind Kind,
                                    std::span<const std::uint8_t> Payload) {
  // The sequence is consumed even when the append fails: batches stamped
  // after the recorder dies must still get unique identities.
  const std::uint64_t Seq = NextSeq++;
  if (!Log.append(Seq, static_cast<std::uint8_t>(Kind), Payload)) {
    ++FailuresN;
    obs::addTo(Obs ? Obs->AppendFailures : nullptr);
    return Seq;
  }
  const std::uint64_t Bytes = persist::LogRecordHeaderBytes + Payload.size();
  ++RecordsN;
  BytesN += Bytes;
  obs::addTo(Obs ? Obs->RecordsTotal : nullptr);
  obs::addTo(Obs ? Obs->BytesTotal : nullptr, Bytes);
  return Seq;
}

void TraceRecorder::recordConfig(std::span<const std::uint8_t> Fingerprint) {
  append(RecordKind::Config, Fingerprint);
}

std::uint64_t TraceRecorder::recordBatch(const service::SampleBatch &Batch,
                                         service::RecordedFate Fate) {
  persist::ByteWriter W;
  encodeBatchRecordPayload(W, Batch, Fate);
  return append(RecordKind::Batch, W.data());
}

void TraceRecorder::recordDrop(std::uint64_t EvictedSeq, std::uint64_t Shard) {
  persist::ByteWriter W;
  encodeDropPayload(W, EvictedSeq, Shard);
  const std::uint64_t Before = RecordsN;
  append(RecordKind::Drop, W.data());
  if (RecordsN != Before)
    obs::addTo(Obs ? Obs->RecordsDropped : nullptr);
}

void TraceRecorder::recordPushReject(std::uint64_t Seq) {
  persist::ByteWriter W;
  encodePushRejectPayload(W, Seq);
  append(RecordKind::PushReject, W.data());
}

void TraceRecorder::recordCheckpoint(std::uint64_t JournalSeq,
                                     bool Committed) {
  persist::ByteWriter W;
  encodeCheckpointPayload(W, JournalSeq, Committed);
  append(RecordKind::Checkpoint, W.data());
}
