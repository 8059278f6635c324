//===- pipebench/Layers.cpp - Load generator, probes and oracle -----------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include "core/Attribution.h"
#include "sampling/Sampler.h"
#include "sim/Engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fcntl.h>
#include <filesystem>
#include <pthread.h>
#include <sched.h>
#include <stdexcept>
#include <unistd.h>

using namespace regmon;

namespace pipebench {

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double residentMiB() {
  std::FILE *F = std::fopen("/proc/self/statm", "r");
  if (!F)
    return 0;
  unsigned long long Size = 0, Resident = 0;
  const int Got = std::fscanf(F, "%llu %llu", &Size, &Resident);
  std::fclose(F);
  if (Got != 2)
    return 0;
  return static_cast<double>(Resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

std::pair<std::uint64_t, std::uint64_t> cpuTicks() {
  std::FILE *F = std::fopen("/proc/stat", "r");
  if (!F)
    return {0, 0};
  unsigned long long T[8] = {};
  const int Got = std::fscanf(F, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &T[0], &T[1], &T[2], &T[3], &T[4], &T[5], &T[6],
                              &T[7]);
  std::fclose(F);
  if (Got != 8)
    return {0, 0};
  std::uint64_t Total = 0;
  for (unsigned long long X : T)
    Total += X;
  return {T[7], Total};
}

std::uint64_t fileBytes(const std::string &Path) {
  std::error_code Ec;
  const auto N = std::filesystem::file_size(Path, Ec);
  return Ec ? 0 : N;
}

std::uint64_t dirBytes(const std::string &Dir) {
  std::uint64_t Total = 0;
  std::error_code Ec;
  for (const auto &E : std::filesystem::directory_iterator(Dir, Ec))
    if (E.is_regular_file(Ec))
      Total += fileBytes(E.path().string());
  return Total;
}

void flushFileSystem(const std::string &Dir) {
  const int Fd = open(Dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (Fd < 0)
    return;
  syncfs(Fd);
  close(Fd);
}

std::vector<int> pickCpus(std::size_t N) {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) != 0)
    return {};
  std::vector<int> Cpus;
  for (int Cpu = CPU_SETSIZE - 1; Cpu >= 0 && Cpus.size() < N; --Cpu)
    if (CPU_ISSET(Cpu, &Set))
      Cpus.push_back(Cpu);
  if (Cpus.size() < N)
    Cpus.clear();
  return Cpus;
}

void pinThisThreadOnce(int Cpu) {
  thread_local bool Pinned = false;
  if (Pinned)
    return;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpu, &Set);
  pthread_setaffinity_np(pthread_self(), sizeof(Set), &Set);
  Pinned = true;
}

//===----------------------------------------------------------------------===//
// Recorder decorator
//===----------------------------------------------------------------------===//

void TimedRecorder::recordConfig(std::span<const std::uint8_t> Fingerprint) {
  Inner.recordConfig(Fingerprint);
}

std::uint64_t TimedRecorder::recordBatch(const service::SampleBatch &Batch,
                                         service::RecordedFate Fate) {
  const std::int64_t Start = nowNs();
  const std::uint64_t Seq = Inner.recordBatch(Batch, Fate);
  const std::int64_t End = nowNs();
  if (Slot) {
    Slot->RecStart = Start;
    Slot->RecEnd = End;
  }
  return Seq;
}

void TimedRecorder::recordDrop(std::uint64_t EvictedSeq, std::uint64_t Shard) {
  Inner.recordDrop(EvictedSeq, Shard);
}

void TimedRecorder::recordPushReject(std::uint64_t Seq) {
  Inner.recordPushReject(Seq);
}

void TimedRecorder::recordCheckpoint(std::uint64_t JournalSeq,
                                     bool Committed) {
  CkptStart = nowNs();
  Inner.recordCheckpoint(JournalSeq, Committed);
  CkptEnd = nowNs();
}

//===----------------------------------------------------------------------===//
// Load generator
//===----------------------------------------------------------------------===//

namespace {

/// splitmix64 finalizer.
std::uint64_t mix64(std::uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

constexpr Cycles PeriodCycles = 45'000;

} // namespace

RecordedInputs recordInputs(const std::vector<std::string> &Programs,
                            std::size_t BatchSamples,
                            std::size_t BatchesPerStream, std::uint64_t Seed) {
  RecordedInputs In;
  for (std::size_t I = 0; I < Programs.size(); ++I) {
    if (!workloads::exists(Programs[I]))
      throw std::runtime_error("unknown program " + Programs[I]);
    StreamInput S;
    S.Program =
        std::make_unique<workloads::Workload>(workloads::make(Programs[I]));
    S.Map = std::make_unique<sim::ProgramCodeMap>(S.Program->Prog);
    for (std::uint64_t Run = 0; S.Batches.size() < BatchesPerStream; ++Run) {
      sim::Engine Engine(S.Program->Prog, S.Program->Script,
                         mix64(mix64(Seed) ^ (I << 16 | Run)));
      sampling::Sampler Sampler(Engine, {PeriodCycles, BatchSamples});
      const std::int64_t Start = nowNs();
      auto Got =
          Sampler.collectIntervals(BatchesPerStream - S.Batches.size());
      In.SamplerSeconds += static_cast<double>(nowNs() - Start) * 1e-9;
      if (Got.empty())
        throw std::runtime_error(Programs[I] + " yields no full batch");
      for (auto &B : Got)
        S.Batches.push_back(std::move(B));
    }
    In.Samples += BatchesPerStream * BatchSamples;
    In.Streams.push_back(std::move(S));
  }
  return In;
}

bool sameBatches(const RecordedInputs &A, const RecordedInputs &B) {
  const auto SameSample = [](const Sample &X, const Sample &Y) {
    return X.Pc == Y.Pc && X.Time == Y.Time && X.DCacheMiss == Y.DCacheMiss;
  };
  if (A.Streams.size() != B.Streams.size())
    return false;
  for (std::size_t I = 0; I < A.Streams.size(); ++I) {
    const auto &X = A.Streams[I].Batches;
    const auto &Y = B.Streams[I].Batches;
    if (X.size() != Y.size())
      return false;
    for (std::size_t K = 0; K < X.size(); ++K)
      if (!std::equal(X[K].begin(), X[K].end(), Y[K].begin(), Y[K].end(),
                      SameSample))
        return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Oracle
//===----------------------------------------------------------------------===//

StreamCounts countsOf(const service::StreamSnapshot &S) {
  return {S.PhaseChanges,  S.RegionsFormed, S.FormationTriggers,
          S.ActiveRegions, S.TotalSamples,  S.UcrSamples};
}

Reference runReference(const RecordedInputs &In) {
  Reference Ref;
  for (const StreamInput &S : In.Streams) {
    auto M = std::make_unique<core::RegionMonitor>(*S.Map);
    StreamCounts C;
    for (const auto &Batch : S.Batches) {
      const std::int64_t Start = nowNs();
      M->observeInterval(Batch);
      Ref.ObserveSeconds += static_cast<double>(nowNs() - Start) * 1e-9;
      // The service's per-interval UCR accounting: k/n times n, rounded.
      C.UcrSamples += static_cast<std::uint64_t>(std::llround(
          M->lastUcrFraction() * static_cast<double>(Batch.size())));
      C.TotalSamples += Batch.size();
    }
    C.PhaseChanges = M->totalPhaseChanges();
    C.RegionsFormed = M->regions().size();
    C.FormationTriggers = M->formationTriggers();
    C.ActiveRegions = M->activeRegionCount();
    Ref.Counts.push_back(C);
    Ref.Monitors.push_back(std::move(M));
  }
  return Ref;
}

double attributionSeconds(const RecordedInputs &In, const Reference &Ref) {
  double Seconds = 0;
  std::vector<core::RegionId> Hits;
  for (std::size_t I = 0; I < In.Streams.size(); ++I) {
    const core::RegionMonitor &M = *Ref.Monitors[I];
    auto A = core::makeAttributor(core::AttributorKind::IntervalTree);
    for (const core::Region &R : M.regions())
      if (M.isActive(R.Id))
        A->insert(R.Id, R.Start, R.End);
    const std::int64_t Start = nowNs();
    for (const auto &Batch : In.Streams[I].Batches) {
      Hits.clear();
      for (const Sample &S : Batch)
        A->lookup(S.Pc, Hits);
    }
    Seconds += static_cast<double>(nowNs() - Start) * 1e-9;
  }
  return Seconds;
}

} // namespace pipebench
