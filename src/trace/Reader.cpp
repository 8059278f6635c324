//===- trace/Reader.cpp - Total trace scanner -----------------------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "trace/Reader.h"

using namespace regmon;
using namespace regmon::trace;

namespace {

using persist::RecordVerdict;

/// Decodes one CRC-valid record body into \p Out. Total: hostile bytes
/// can only produce Unknown or Malformed.
RecordVerdict decodeBody(const persist::LogRecord &Rec, TraceRecord &Out) {
  Out.Seq = Rec.Seq;
  persist::ByteReader R(Rec.Payload);
  switch (Rec.Kind) {
  case static_cast<std::uint8_t>(RecordKind::Config):
    Out.Kind = RecordKind::Config;
    Out.Config.assign(Rec.Payload.begin(), Rec.Payload.end());
    return RecordVerdict::Accept;
  case static_cast<std::uint8_t>(RecordKind::Batch):
    Out.Kind = RecordKind::Batch;
    if (!decodeBatchRecordPayload(R, Out.Batch, Out.Fate))
      return RecordVerdict::Malformed;
    Out.Batch.TraceSeq = Rec.Seq;
    return RecordVerdict::Accept;
  case static_cast<std::uint8_t>(RecordKind::Drop):
    Out.Kind = RecordKind::Drop;
    if (!decodeDropPayload(R, Out.RefSeq, Out.Shard) || Out.RefSeq >= Rec.Seq)
      return RecordVerdict::Malformed;
    return RecordVerdict::Accept;
  case static_cast<std::uint8_t>(RecordKind::PushReject):
    Out.Kind = RecordKind::PushReject;
    if (!decodePushRejectPayload(R, Out.RefSeq) || Out.RefSeq >= Rec.Seq)
      return RecordVerdict::Malformed;
    return RecordVerdict::Accept;
  case static_cast<std::uint8_t>(RecordKind::Checkpoint):
    Out.Kind = RecordKind::Checkpoint;
    if (!decodeCheckpointPayload(R, Out.RefSeq, Out.Committed))
      return RecordVerdict::Malformed;
    return RecordVerdict::Accept;
  default:
    return RecordVerdict::Unknown;
  }
}

/// A visitor that decodes every record into \p Records, stopping at the
/// first one it cannot decode.
persist::RecordVisitor decodeInto(std::vector<TraceRecord> &Records) {
  return [&Records](const persist::LogRecord &Rec) {
    TraceRecord Decoded;
    const RecordVerdict V = decodeBody(Rec, Decoded);
    if (V == RecordVerdict::Accept)
      Records.push_back(std::move(Decoded));
    return V;
  };
}

} // namespace

ScanResult regmon::trace::scanTraceBytes(
    std::span<const std::uint8_t> Bytes) {
  std::vector<TraceRecord> Records;
  const persist::LogScan Scan =
      persist::scanLog(Bytes, TraceFormat, decodeInto(Records));
  return {Scan, std::move(Records)};
}

ScanResult regmon::trace::scanTraceFile(const std::string &Path) {
  std::vector<TraceRecord> Records;
  const persist::LogScan Scan =
      persist::scanLogFile(Path, TraceFormat, decodeInto(Records));
  return {Scan, std::move(Records)};
}
