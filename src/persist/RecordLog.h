//===- persist/RecordLog.h - Shared CRC-framed append log ------*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one append-log codec under both durable logs, the write-ahead
/// journal (persist/Checkpoint.h) and the flight-recorder trace
/// (trace/Format.h). Layout (little-endian):
///
///     u32 magic   u32 version
///     repeated records: [ u64 seq | u8 kind | u32 len | u32 crc | bytes ]
///
/// Magic and version are the owner's (\ref LogFormat), and so are kinds
/// and payloads. The record CRC binds seq, kind and length together with
/// the payload, so a bit flip anywhere in a record is detected, never
/// replayed with silently wrong framing. Sequence numbers strictly
/// increase from 1. \ref LogWriter flushes each record before the append
/// is acknowledged, \ref scanLog finds the longest valid prefix of
/// arbitrary bytes, and \ref repairLog applies the one repair policy.
///
//===----------------------------------------------------------------------===//

#ifndef REGMON_PERSIST_RECORDLOG_H
#define REGMON_PERSIST_RECORDLOG_H

#include "persist/Bytes.h"
#include "persist/Io.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>

namespace regmon::persist {

/// The file-header parameters that tell one log format from another.
struct LogFormat {
  std::uint32_t Magic = 0;
  std::uint32_t Version = 0;
};

/// Byte length of the file header (magic + version).
inline constexpr std::uint64_t LogHeaderBytes = 8;
/// Byte length of one record header (seq + kind + len + crc).
inline constexpr std::uint64_t LogRecordHeaderBytes = 17;

/// The CRC stored in a record: seq, kind and length chained with the
/// payload, so header corruption is as detectable as payload corruption.
std::uint32_t logRecordCrc(std::uint64_t Seq, std::uint8_t Kind,
                           std::span<const std::uint8_t> Payload);

/// Appends the file header (magic + version) to \p W.
void encodeLogHeader(ByteWriter &W, LogFormat Format);

/// One CRC-valid record handed to a scan visitor. \c Payload points into
/// the scanned bytes and is only valid during the visit.
struct LogRecord {
  std::uint64_t Seq = 0;
  std::uint8_t Kind = 0;
  std::span<const std::uint8_t> Payload;
  /// Byte offset of the record header within the log.
  std::uint64_t Offset = 0;
};

/// A visitor's judgement of one CRC-valid record.
enum class RecordVerdict : std::uint8_t {
  Accept,    ///< Decoded; the scan continues.
  Unknown,   ///< Valid, but this reader cannot apply it (a newer kind, a
             ///< stream it lacks): another writer's data. Never repaired.
  Malformed, ///< Fails structural decode (writer bug or forged CRC).
             ///< Repairable like a torn tail.
};

/// Visits one record; see \ref RecordVerdict.
using RecordVisitor = std::function<RecordVerdict(const LogRecord &)>;

/// Outcome of scanning a log: the valid prefix plus why the scan ended.
/// At most one of the failure flags is set.
struct LogScan {
  /// Byte length of the valid prefix (file header included once it is
  /// intact); the repair point.
  std::uint64_t ValidBytes = 0;
  /// Highest sequence number in the valid prefix.
  std::uint64_t LastSeq = 0;
  /// Total input length, so callers can tell "intact" from "repairable".
  std::uint64_t FileBytes = 0;
  /// A short record header, a length past the end, a CRC mismatch or a
  /// non-increasing seq ended the scan: a torn tail. Repairable.
  bool TornTail = false;
  /// The visitor judged a record \ref RecordVerdict::Unknown.
  bool UnknownKind = false;
  /// The visitor judged a record \ref RecordVerdict::Malformed.
  bool MalformedPayload = false;
  /// Fewer than LogHeaderBytes bytes: a writer died inside the file
  /// header. Repairable to an empty file.
  bool HeaderTorn = false;
  /// The magic is wrong: not this log.
  bool HeaderCorrupt = false;
  /// The version is not ours.
  bool VersionSkew = false;
  /// The file does not exist (\ref scanLogFile only).
  bool Missing = false;

  /// True when the input is a complete well-formed log (an empty input is
  /// a never-opened log: intact).
  bool intact() const {
    return !TornTail && !MalformedPayload && !HeaderTorn && !refused() &&
           !Missing;
  }
  /// True when the bytes are another writer's (wrong magic or version, a
  /// record this reader cannot apply): a repair would destroy them.
  bool refused() const { return UnknownKind || HeaderCorrupt || VersionSkew; }
  /// True when truncating to ValidBytes yields an intact log (and a writer
  /// may then append to it).
  bool repairable() const { return !refused() && !Missing; }
};

/// Scans \p Bytes as a \p Format log, calling \p Visit on every CRC-valid
/// record in order until it returns anything but Accept. Total over
/// arbitrary input.
LogScan scanLog(std::span<const std::uint8_t> Bytes, LogFormat Format,
                const RecordVisitor &Visit);

/// Reads and scans \p Path; Missing is set when the file cannot be read.
LogScan scanLogFile(const std::string &Path, LogFormat Format,
                    const RecordVisitor &Visit);

/// What \ref repairLog did.
enum class RepairOutcome : std::uint8_t {
  Clean,    ///< Nothing to repair (intact or missing).
  Repaired, ///< Truncated to the valid prefix.
  Refused,  ///< Another writer's bytes; left untouched.
  Failed,   ///< The truncation itself failed.
};

/// The one repair policy: truncates \p Path to \p Scan's valid prefix when
/// the scan is repairable and not intact, never touches a refused file.
/// \p Crash (nullable) gates the truncation.
RepairOutcome repairLog(const std::string &Path, const LogScan &Scan,
                        CrashPoint *Crash);

/// Appends records to a log file, one flushed write per record.
class LogWriter {
public:
  LogWriter() = default;
  ~LogWriter();

  LogWriter(const LogWriter &) = delete;
  LogWriter &operator=(const LogWriter &) = delete;

  /// Opens \p Path for appending, writing the \p Format header first when
  /// the file is missing or empty (decided from its size alone). \p Crash
  /// (nullable) gates every byte.
  bool open(const std::string &Path, LogFormat Format, CrashPoint *Crash);

  /// True while the writer can accept appends.
  bool ok() const;

  /// Appends and flushes one record. A false return means the record is
  /// not durable (it may be partially on disk -- a torn tail) and the
  /// writer is dead.
  bool append(std::uint64_t Seq, std::uint8_t Kind,
              std::span<const std::uint8_t> Payload);

  /// Flushes and closes; false if any step failed. Safe when never
  /// opened; the writer can be \ref open-ed again.
  bool close();

private:
  std::unique_ptr<FileSink> Sink;
};

} // namespace regmon::persist

#endif // REGMON_PERSIST_RECORDLOG_H
