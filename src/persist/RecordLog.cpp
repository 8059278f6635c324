//===- persist/RecordLog.cpp - Shared CRC-framed append log ---------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "persist/RecordLog.h"

#include "persist/Crc32.h"

using namespace regmon::persist;

std::uint32_t
regmon::persist::logRecordCrc(std::uint64_t Seq, std::uint8_t Kind,
                              std::span<const std::uint8_t> Payload) {
  ByteWriter Header;
  Header.u64(Seq);
  Header.u8(Kind);
  Header.u32(static_cast<std::uint32_t>(Payload.size()));
  return crc32(Payload, crc32(Header.data()));
}

void regmon::persist::encodeLogHeader(ByteWriter &W, LogFormat Format) {
  W.u32(Format.Magic);
  W.u32(Format.Version);
}

LogScan regmon::persist::scanLog(std::span<const std::uint8_t> Bytes,
                                 LogFormat Format,
                                 const RecordVisitor &Visit) {
  LogScan Out;
  Out.FileBytes = Bytes.size();
  if (Bytes.empty())
    return Out; // a never-opened log: intact and empty
  if (Bytes.size() < LogHeaderBytes) {
    Out.HeaderTorn = true;
    return Out;
  }
  {
    ByteReader H(Bytes.first(LogHeaderBytes));
    if (H.u32() != Format.Magic) {
      Out.HeaderCorrupt = true;
      return Out;
    }
    if (H.u32() != Format.Version) {
      Out.VersionSkew = true;
      return Out;
    }
  }
  Out.ValidBytes = LogHeaderBytes;
  std::uint64_t Pos = LogHeaderBytes;
  while (Pos < Bytes.size()) {
    const std::uint64_t Left = Bytes.size() - Pos;
    if (Left < LogRecordHeaderBytes) {
      Out.TornTail = true; // writer died inside a record header
      break;
    }
    ByteReader R(Bytes.subspan(Pos, LogRecordHeaderBytes));
    LogRecord Rec;
    Rec.Seq = R.u64();
    Rec.Kind = R.u8();
    const std::uint32_t Len = R.u32();
    const std::uint32_t Crc = R.u32();
    // A hostile length is bounded against the bytes present before any
    // use; a length past the end is indistinguishable from a torn
    // payload and treated the same way.
    if (Len > Left - LogRecordHeaderBytes) {
      Out.TornTail = true;
      break;
    }
    Rec.Payload = Bytes.subspan(Pos + LogRecordHeaderBytes, Len);
    Rec.Offset = Pos;
    // Bit corruption or a stale record after reuse: nothing from this
    // byte on is trusted.
    if (Crc != logRecordCrc(Rec.Seq, Rec.Kind, Rec.Payload) ||
        Rec.Seq <= Out.LastSeq) {
      Out.TornTail = true;
      break;
    }
    const RecordVerdict V = Visit(Rec);
    if (V == RecordVerdict::Unknown) {
      Out.UnknownKind = true;
      break;
    }
    if (V == RecordVerdict::Malformed) {
      Out.MalformedPayload = true;
      break;
    }
    Out.LastSeq = Rec.Seq;
    Pos += LogRecordHeaderBytes + Len;
    Out.ValidBytes = Pos;
  }
  return Out;
}

LogScan regmon::persist::scanLogFile(const std::string &Path,
                                     LogFormat Format,
                                     const RecordVisitor &Visit) {
  const auto Bytes = readFileBytes(Path);
  if (!Bytes) {
    LogScan Out;
    Out.Missing = true;
    return Out;
  }
  return scanLog(*Bytes, Format, Visit);
}

RepairOutcome regmon::persist::repairLog(const std::string &Path,
                                         const LogScan &Scan,
                                         CrashPoint *Crash) {
  if (Scan.refused())
    return RepairOutcome::Refused;
  if (Scan.Missing || Scan.ValidBytes == Scan.FileBytes)
    return RepairOutcome::Clean;
  return truncateFile(Path, Scan.ValidBytes, Crash) ? RepairOutcome::Repaired
                                                    : RepairOutcome::Failed;
}

LogWriter::~LogWriter() { (void)close(); }

bool LogWriter::open(const std::string &Path, LogFormat Format,
                     CrashPoint *Crash) {
  (void)close();
  // Decide header-needed before opening in append mode (which creates the
  // file). A zero-length file also needs one: it is what a kill before
  // the header bytes made it out leaves, or what repair of a torn header
  // truncates to.
  const bool NeedHeader = fileSize(Path).value_or(0) == 0;
  Sink = std::make_unique<FileSink>(Path, /*Append=*/true, Crash);
  if (!Sink->ok())
    return false;
  if (NeedHeader) {
    ByteWriter W;
    encodeLogHeader(W, Format);
    if (!Sink->write(W.data()) || !Sink->flush())
      return false;
  }
  return true;
}

bool LogWriter::ok() const { return Sink != nullptr && Sink->ok(); }

bool LogWriter::append(std::uint64_t Seq, std::uint8_t Kind,
                       std::span<const std::uint8_t> Payload) {
  if (!ok())
    return false;
  ByteWriter W;
  W.reserve(LogRecordHeaderBytes + Payload.size());
  W.u64(Seq);
  W.u8(Kind);
  W.u32(static_cast<std::uint32_t>(Payload.size()));
  W.u32(logRecordCrc(Seq, Kind, Payload));
  W.bytes(Payload);
  // One write + one flush: the record is either acknowledged durable or
  // the writer is dead with at most a torn tail on disk.
  return Sink->write(W.data()) && Sink->flush();
}

bool LogWriter::close() {
  if (!Sink)
    return true;
  const bool Closed = Sink->close();
  Sink.reset();
  return Closed;
}
