//===- trace/Reader.h - Total trace scanner --------------------*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The trust boundary of the flight recorder: a scanner that turns an
/// arbitrary byte string into the longest valid prefix of decoded trace
/// records plus a precise diagnosis of why the scan stopped. It is total
/// -- every truncation, bit flip, version skew, hostile length and
/// unknown kind yields flags on \ref ScanResult, never undefined
/// behaviour. The framing, the longest-valid-prefix scan and the repair
/// policy are the shared record log's (persist/RecordLog.h), the same the
/// journal uses; this layer adds only the kind decode.
///
//===----------------------------------------------------------------------===//

#ifndef REGMON_TRACE_READER_H
#define REGMON_TRACE_READER_H

#include "trace/Format.h"

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace regmon::trace {

/// One decoded record. Which fields are meaningful depends on Kind.
struct TraceRecord {
  std::uint64_t Seq = 0;
  RecordKind Kind = RecordKind::Config;
  /// Batch records: the fate and the batch (TraceSeq == Seq).
  service::RecordedFate Fate = service::RecordedFate::Admitted;
  service::SampleBatch Batch;
  /// Config records: the opaque fingerprint bytes.
  std::vector<std::uint8_t> Config;
  /// Drop: the evicted batch's seq. PushReject: the rejected batch's
  /// seq. Checkpoint: the journal seq of the attempt.
  std::uint64_t RefSeq = 0;
  /// Drop records: the shard whose queue evicted.
  std::uint64_t Shard = 0;
  /// Checkpoint records: whether the commit succeeded.
  bool Committed = false;
};

/// Outcome of scanning trace bytes: the decoded valid prefix plus the
/// record log's diagnosis of why the scan ended.
struct ScanResult : persist::LogScan {
  std::vector<TraceRecord> Records;
};

/// Scans \p Bytes. Total over arbitrary input.
ScanResult scanTraceBytes(std::span<const std::uint8_t> Bytes);

/// Reads and scans \p Path; Missing is set when the file cannot be read.
ScanResult scanTraceFile(const std::string &Path);

} // namespace regmon::trace

#endif // REGMON_TRACE_READER_H
