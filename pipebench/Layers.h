//===- pipebench/Layers.h - Load generator, probes and oracle ---*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Everything the pipeline benchmark needs besides its workload runner:
///
///  * the load generator, which pre-records every stream with sim +
///    sampling::Sampler before anything is timed, so the service under
///    test only ever sees finished batches;
///  * the probes, which time calls into each layer from outside the
///    product (a BatchRecorder decorator, per-batch timestamps);
///  * the oracle, a bare sequential RegionMonitor per stream that every
///    service result is checked against.
///
//===----------------------------------------------------------------------===//

#ifndef PIPEBENCH_LAYERS_H
#define PIPEBENCH_LAYERS_H

#include "core/RegionMonitor.h"
#include "service/MonitorService.h"
#include "sim/ProgramCodeMap.h"
#include "workloads/Workloads.h"

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace pipebench {

/// Monotonic clock reading in nanoseconds.
std::int64_t nowNs();

/// Resident set size of this process, in MiB.
double residentMiB();

/// CPU time the hypervisor has stolen from this machine so far, and all
/// CPU time, in clock ticks (the first line of /proc/stat; 0 and 0 when
/// it cannot be read).
std::pair<std::uint64_t, std::uint64_t> cpuTicks();

/// Size of \p Path in bytes, 0 when it does not exist.
std::uint64_t fileBytes(const std::string &Path);

/// Total size of the regular files under \p Dir.
std::uint64_t dirBytes(const std::string &Dir);

/// Waits until the file system holding \p Dir has written back its dirty
/// data, so the next measurement does not pay for the last one's I/O.
void flushFileSystem(const std::string &Dir);

/// Picks \p N distinct CPUs from the end of this process's affinity mask
/// (away from CPU 0, where device interrupts usually land). Empty when
/// fewer than \p N CPUs are available.
std::vector<int> pickCpus(std::size_t N);

/// Pins the calling thread to \p Cpu, once per thread.
void pinThisThreadOnce(int Cpu);

/// Timestamps of one batch's trip through the service, taken by the
/// producer loop, the recorder decorator and the worker hook. -1 marks a
/// point that was not taken.
struct BatchTimes {
  std::int64_t GenStart = -1;    ///< producer starts copying the batch
  std::int64_t SubmitStart = -1; ///< producer enters submit()
  std::int64_t SubmitEnd = -1;   ///< submit() returned
  std::int64_t RecStart = -1;    ///< recorder's recordBatch entered
  std::int64_t RecEnd = -1;      ///< recorder's recordBatch returned
  std::int64_t HookAt = -1;      ///< worker hook fired (processing starts)
};

/// BatchRecorder decorator that times every call into the wrapped flight
/// recorder. The producer points it at the current batch's timestamps
/// before each submit; checkpoint markers are timed separately.
class TimedRecorder final : public regmon::service::BatchRecorder {
public:
  explicit TimedRecorder(regmon::service::BatchRecorder &Wrapped)
      : Inner(Wrapped) {}

  /// Batch whose recordBatch call is timed next (null: untimed).
  void setSlot(BatchTimes *S) { Slot = S; }

  /// Start and end of the last recordCheckpoint call.
  std::int64_t checkpointStart() const { return CkptStart; }
  std::int64_t checkpointEnd() const { return CkptEnd; }

  void recordConfig(std::span<const std::uint8_t> Fingerprint) override;
  std::uint64_t recordBatch(const regmon::service::SampleBatch &Batch,
                            regmon::service::RecordedFate Fate) override;
  void recordDrop(std::uint64_t EvictedSeq, std::uint64_t Shard) override;
  void recordPushReject(std::uint64_t Seq) override;
  void recordCheckpoint(std::uint64_t JournalSeq, bool Committed) override;

private:
  regmon::service::BatchRecorder &Inner;
  BatchTimes *Slot = nullptr;
  std::int64_t CkptStart = -1;
  std::int64_t CkptEnd = -1;
};

/// One pre-recorded stream: the program it samples and its batches.
struct StreamInput {
  std::unique_ptr<regmon::workloads::Workload> Program;
  std::unique_ptr<regmon::sim::ProgramCodeMap> Map;
  std::vector<std::vector<regmon::Sample>> Batches;
};

/// Every stream of one workload, recorded before anything is timed.
struct RecordedInputs {
  std::vector<StreamInput> Streams;
  /// Wall time spent inside Sampler::collectIntervals.
  double SamplerSeconds = 0;
  std::uint64_t Samples = 0;
};

/// Records stream i from \p Programs[i]: \p BatchesPerStream batches of
/// \p BatchSamples samples at the paper's 45K-cycle period. A program
/// that ends early is run again (a restarted process) until the stream
/// is long enough. Every engine seed derives from \p Seed, the stream
/// index and the run index.
RecordedInputs recordInputs(const std::vector<std::string> &Programs,
                            std::size_t BatchSamples,
                            std::size_t BatchesPerStream, std::uint64_t Seed);

/// True when \p A and \p B hold sample-for-sample identical batches.
bool sameBatches(const RecordedInputs &A, const RecordedInputs &B);

/// The per-stream results the oracle compares.
struct StreamCounts {
  std::uint64_t PhaseChanges = 0;
  std::uint64_t RegionsFormed = 0;
  std::uint64_t FormationTriggers = 0;
  std::uint64_t ActiveRegions = 0;
  std::uint64_t TotalSamples = 0;
  std::uint64_t UcrSamples = 0;

  bool operator==(const StreamCounts &) const = default;
};

/// Reads \p S's counts as the service published them.
StreamCounts countsOf(const regmon::service::StreamSnapshot &S);

/// The bare sequential reference: one RegionMonitor per stream fed that
/// stream's batches in order, outside any service.
struct Reference {
  std::vector<std::unique_ptr<regmon::core::RegionMonitor>> Monitors;
  std::vector<StreamCounts> Counts;
  /// Wall time of all observeInterval calls.
  double ObserveSeconds = 0;
};

Reference runReference(const RecordedInputs &In);

/// Wall time of passing every recorded PC through a fresh interval-tree
/// attributor holding each stream's final active regions (from \p Ref).
double attributionSeconds(const RecordedInputs &In, const Reference &Ref);

} // namespace pipebench

#endif // PIPEBENCH_LAYERS_H
