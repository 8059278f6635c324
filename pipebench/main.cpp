//===- pipebench/main.cpp - End-to-end pipeline benchmark -----------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Drives service::MonitorService through one named workload and prints
// every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1), checking each pass's results against a bare sequential
// RegionMonitor. See README.md in this directory for the metrics, the
// workloads and the layer each number belongs to.
//
//   pipebench --workload corpus|durable|fanin --seed N --seconds S
//             --trace 0|1 [--tmp DIR] [--spans FILE]
//
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
//
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include "obs/EventTracer.h"
#include "obs/Export.h"
#include "obs/Instruments.h"
#include "obs/Metrics.h"
#include "persist/Checkpoint.h"
#include "service/MonitorService.h"
#include "support/Statistics.h"
#include "trace/Recorder.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <malloc.h>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

namespace fs = std::filesystem;
using namespace regmon;
using namespace pipebench;

namespace {

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

struct Spec {
  std::string Name;
  std::vector<std::string> Programs; ///< one per stream
  std::size_t BatchSamples = 2032;
  std::size_t BatchesPerStream = 0;
  std::size_t Workers = 0; ///< 0: Inline service
  bool Durable = false;    ///< CheckpointManager + TraceRecorder attached
  /// In-phase operator scrape cadence, in batches. 0: the scrapes run
  /// after the timed phase instead.
  std::size_t ScrapeEvery = 0;
};

constexpr const char *SyntheticPrograms[] = {
    "synthetic.steady", "synthetic.periodic", "synthetic.bottleneck",
    "synthetic.pollution"};

std::optional<Spec> specFor(const std::string &Name) {
  Spec S;
  S.Name = Name;
  if (Name == "corpus") {
    S.Programs = workloads::fig13Names();
    S.Programs.push_back("176.gcc");
    S.Programs.push_back("186.crafty");
    S.BatchesPerStream = 64;
  } else if (Name == "durable") {
    S.Programs.assign(std::begin(SyntheticPrograms),
                      std::end(SyntheticPrograms));
    // 640 batches: checkpoints after 256 and 512, then a 128-batch
    // journal tail that restore has to replay.
    S.BatchesPerStream = 160;
    S.Durable = true;
  } else if (Name == "fanin") {
    for (std::size_t I = 0; I < 64; ++I)
      S.Programs.push_back(SyntheticPrograms[I % 4]);
    S.BatchSamples = 256;
    S.BatchesPerStream = 64;
    S.Workers = 2;
    S.ScrapeEvery = 1024;
  } else {
    return std::nullopt;
  }
  return S;
}

constexpr std::size_t CheckpointEvery = 256;
constexpr std::size_t PostPhaseScrapes = 4;
constexpr std::size_t RestoresPerPass = 2;
constexpr std::size_t MinSetupRuns = 5;
constexpr std::size_t MaxSetupRuns = 15;
constexpr double SetupBudgetS = 3;
constexpr std::size_t WarmupPasses = 3;
constexpr std::size_t MinTimedPasses = 4;
/// Reconciliation tolerances of the traced run (see README.md).
constexpr double CoreTolerance = 0.2;
constexpr double CoverageTolerance = 0.02;

service::ServiceConfig serviceConfig(const Spec &S) {
  service::ServiceConfig C;
  if (S.Workers == 0) {
    C.Inline = true;
    C.Workers = 1;
  } else {
    C.Workers = S.Workers;
    C.Policy = service::OverflowPolicy::Block;
    // Room for a whole pass, so the producer is never held by a full
    // queue. A full queue hands producer and worker one futex wake per
    // batch, and on a contended virtual machine that wake cost, not the
    // service's, set samples_per_s (it swung 4x between runs).
    C.QueueCapacity = S.Programs.size() * S.BatchesPerStream;
  }
  return C;
}

/// One service under test with every layer the workload attaches.
/// Members are destroyed bottom-up, so the service goes first.
struct Rig {
  obs::MetricsRegistry Registry;
  obs::EventTracer Tracer;
  obs::PersistInstruments PersistObs;
  obs::TraceInstruments TraceObs;
  std::unique_ptr<persist::CheckpointManager> Store;
  trace::TraceRecorder Recorder;
  std::unique_ptr<TimedRecorder> Timed; ///< traced durable passes only
  std::unique_ptr<service::MonitorService> Service;
};

using WorkerHook =
    std::function<void(std::size_t, const service::SampleBatch &)>;

std::unique_ptr<Rig> buildRig(const Spec &S, const RecordedInputs &In,
                              const std::string &Dir, bool Traced,
                              WorkerHook Hook) {
  auto R = std::make_unique<Rig>();
  R->Service = std::make_unique<service::MonitorService>(serviceConfig(S));
  for (const StreamInput &St : In.Streams)
    R->Service->addStream(*St.Map);
  R->Service->attachObservability(R->Registry, &R->Tracer);
  if (S.Durable) {
    R->Store = std::make_unique<persist::CheckpointManager>(Dir);
    if (!R->Store->valid())
      throw std::runtime_error("cannot create " + Dir);
    R->PersistObs = obs::makePersistInstruments(R->Registry, &R->Tracer, 0, "");
    R->Store->attachObservability(&R->PersistObs);
    R->Service->attachPersistence(*R->Store);
    R->Service->restore(); // empty directory: a cold start
    if (!R->Recorder.open(Dir + "/flight.trace").Ok)
      throw std::runtime_error("cannot open the flight recorder in " + Dir);
    R->TraceObs = obs::makeTraceInstruments(R->Registry, "");
    R->Recorder.attachObservability(&R->TraceObs);
    if (Traced) {
      R->Timed = std::make_unique<TimedRecorder>(R->Recorder);
      R->Service->attachRecorder(*R->Timed);
    } else {
      R->Service->attachRecorder(R->Recorder);
    }
  }
  if (Hook)
    R->Service->setWorkerHook(std::move(Hook));
  R->Service->start();
  return R;
}

//===----------------------------------------------------------------------===//
// Runner
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string TmpRoot = ".bench_build/tmp";
  std::string SpansPath;
};

/// One span of the traced run: batch id, name, parent name (empty for a
/// root) and its interval relative to the pass start.
struct SpanRow {
  std::uint64_t Id;
  const char *Name;
  const char *Parent;
  std::int64_t Start;
  std::int64_t End;
};

enum class PassKind { Warmup, Timed, Traced };

class Bench {
public:
  Bench(Spec Workload, Options O)
      : S(std::move(Workload)), Opt(std::move(O)) {}
  int run();

private:
  void setUp();
  void runPass(PassKind Kind);
  double scrape(Rig &R, PassKind Kind, std::int64_t Base);
  void restoreAndCheck(Rig &R, const std::string &Dir, PassKind Kind,
                       std::int64_t Base);
  /// Records the traced pass's spans; returns its summed service.process
  /// time in ns (0 when threaded).
  double analyseTrace(std::int64_t Begin, std::int64_t End,
                      std::int64_t DrainStart, double InPhaseNs);
  void reconcile();
  void fail(const std::string &Why);
  void report(double Elapsed, double StealPct);
  std::string counts(const service::ServiceSnapshot &Snap, const Rig &R,
                     const std::string &Dir, std::size_t ExportBytes);

  Spec S;
  Options Opt;
  std::string TmpDir;
  RecordedInputs In;
  Reference Ref;
  /// Submission order: (stream, batch index) pairs, round-robin.
  std::vector<std::pair<service::StreamId, std::size_t>> Order;
  /// Batch id of each stream's k-th batch (the worker hook's lookup).
  std::vector<std::vector<std::uint32_t>> BatchIds;
  std::vector<std::uint32_t> NextOfStream;
  std::vector<BatchTimes> Times;
  /// Threaded workloads: the producer's CPU, then one per worker (empty:
  /// not pinned).
  std::vector<int> Cpus;
  std::size_t PassCount = 0;
  bool Correct = true;
  std::vector<std::string> Failures;
  std::string Fingerprint;
  std::string RestoreOutcome;

  // End-to-end distributions (untraced timed passes).
  std::vector<double> SetupS, PassRate, SubmitP50Us, SubmitP99Us,
      CheckpointMs, RestoreMs, ScrapeMs, PhaseUntracedS;
  /// Operator operations of the current timed pass, in ms. A pass's
  /// checkpoints differ in kind (durable: a 4.4 MB and an 8.9 MB journal),
  /// so each pass contributes its mean and the metric is the median of
  /// those: a median over the pooled, two-humped times would jump between
  /// the humps.
  struct {
    std::vector<double> Checkpoint, Restore, Scrape;
  } Ops;
  std::vector<double> RssMiB;
  std::uint64_t Attempted = 0, Failed = 0;

  // Per-layer figures (traced passes).
  std::vector<double> SamplerNs, PhaseTracedS, QueueWaitP50Us,
      QueueWaitP99Us, ObserveNs,
      AttribNs, SnapshotUs, ExportUs, ExportBytes, JournalAtCkpt,
      SnapshotBytes, SkipFrac, DirBytes, TraceBytesPerSample;
  double AdmitSelfNs = 0, ProcessNs = 0, RecordNs = 0;
  std::uint64_t TracedBatches = 0, Refused = 0, Dropped = 0;
  double QueueDepthMax = 0;
  // Reconciliation: coverage sums over every traced pass, and per Inline
  // traced pass how far service.process exceeds the bare core replay.
  double PhaseNs = 0, CoveredNs = 0, CoverageGap = 0, CoreGap = 0;
  std::vector<double> CoreGaps;
  std::vector<SpanRow> Spans, LastSpans;
  /// Span id of the next non-batch operation (batches use 0..N-1).
  std::uint64_t NextOpId = 0;
};

void Bench::fail(const std::string &Why) {
  if (Failures.size() < 8 &&
      std::find(Failures.begin(), Failures.end(), Why) == Failures.end())
    Failures.push_back(Why);
  Correct = false;
}

void Bench::setUp() {
  // At least MinSetupRuns set-ups, more while they are cheap, so the
  // median of short set-ups rests on more samples.
  double SpentS = 0;
  for (std::size_t Run = 0;
       Run < MinSetupRuns || (Run < MaxSetupRuns && SpentS < SetupBudgetS);
       ++Run) {
    const std::string Dir = TmpDir + "/setup" + std::to_string(Run);
    const std::int64_t Start = nowNs();
    RecordedInputs Got = recordInputs(S.Programs, S.BatchSamples,
                                      S.BatchesPerStream, Opt.Seed);
    auto R = buildRig(S, Got, Dir, /*Traced=*/false, {});
    SetupS.push_back(static_cast<double>(nowNs() - Start) * 1e-9);
    SpentS += SetupS.back();
    SamplerNs.push_back(Got.SamplerSeconds * 1e9 /
                        static_cast<double>(Got.Samples));
    R.reset();
    fs::remove_all(Dir);
    if (Run == 0)
      In = std::move(Got);
    else if (!sameBatches(In, Got))
      fail("recording the same seed twice gave different batches");
  }
  const std::size_t N = In.Streams.size() * S.BatchesPerStream;
  BatchIds.assign(In.Streams.size(), {});
  for (std::size_t K = 0; K < S.BatchesPerStream; ++K)
    for (std::size_t St = 0; St < In.Streams.size(); ++St) {
      BatchIds[St].push_back(static_cast<std::uint32_t>(Order.size()));
      Order.emplace_back(static_cast<service::StreamId>(St), K);
    }
  NextOfStream.assign(In.Streams.size(), 0);
  Times.assign(N, BatchTimes{});
  Spans.reserve(N * 6 + 1024);
  LastSpans.reserve(N * 6 + 1024);
  Ref = runReference(In);
}

double Bench::scrape(Rig &R, PassKind Kind, std::int64_t Base) {
  const std::int64_t T0 = nowNs();
  const service::ServiceSnapshot Snap = R.Service->snapshot();
  const std::int64_t T1 = nowNs();
  const std::string Text = obs::exportPrometheus(R.Registry);
  const std::int64_t T2 = nowNs();
  if (Kind == PassKind::Timed)
    Ops.Scrape.push_back(static_cast<double>(T2 - T0) * 1e-6);
  if (Kind == PassKind::Traced) {
    const std::uint64_t Id = NextOpId++;
    SnapshotUs.push_back(static_cast<double>(T1 - T0) * 1e-3);
    ExportUs.push_back(static_cast<double>(T2 - T1) * 1e-3);
    ExportBytes.push_back(static_cast<double>(Text.size()));
    QueueDepthMax =
        std::max(QueueDepthMax, static_cast<double>(Snap.QueueDepth));
    Spans.push_back({Id, "scrape", "", T0 - Base, T2 - Base});
    Spans.push_back({Id, "obs.snapshot", "scrape", T0 - Base, T1 - Base});
    Spans.push_back({Id, "obs.export", "scrape", T1 - Base, T2 - Base});
  }
  return static_cast<double>(T2 - T0);
}

void Bench::restoreAndCheck(Rig &R, const std::string &Dir, PassKind Kind,
                            std::int64_t Base) {
  const std::vector<std::uint8_t> Live = R.Service->encodeState();
  if (!S.Durable) {
    // Without persistence on the data path, the operator's checkpoint
    // and crash recovery act on the workload's end state: seed the
    // directory with it, then restore and re-checkpoint it below.
    persist::CheckpointManager Seed(Dir);
    if (!Seed.valid() || !Seed.commitSnapshot(Live, 0))
      fail("could not write the end-state snapshot");
  }
  for (std::size_t I = 0; I < RestoresPerPass; ++I) {
    service::MonitorService Fresh(serviceConfig(S));
    for (const StreamInput &St : In.Streams)
      Fresh.addStream(*St.Map);
    persist::CheckpointManager Store(Dir);
    Fresh.attachPersistence(Store);
    const std::int64_t T0 = nowNs();
    const service::RestoreOutcome Outcome = Fresh.restore();
    const std::int64_t T1 = nowNs();
    RestoreOutcome = service::toString(Outcome);
    if (Fresh.encodeState() != Live)
      fail(std::string("restored state (") + RestoreOutcome +
           ") differs from the live service");
    const persist::RecoveryCounters &C = Store.counters();
    const auto Read = C.JournalRecordsReplayed + C.JournalRecordsSkipped;
    if (Kind == PassKind::Timed)
      Ops.Restore.push_back(static_cast<double>(T1 - T0) * 1e-6);
    if (Kind == PassKind::Traced) {
      SkipFrac.push_back(Read == 0 ? 0.0
                                   : static_cast<double>(
                                         C.JournalRecordsSkipped) /
                                         static_cast<double>(Read));
      Spans.push_back({NextOpId++, "restore", "", T0 - Base, T1 - Base});
    }
    if (S.Durable)
      continue;
    const auto Journal = static_cast<double>(fileBytes(Store.journalPath()));
    const std::int64_t C0 = nowNs();
    if (!Fresh.checkpoint())
      fail("checkpoint of the restored service failed");
    const std::int64_t C1 = nowNs();
    if (Kind == PassKind::Timed)
      Ops.Checkpoint.push_back(static_cast<double>(C1 - C0) * 1e-6);
    if (Kind == PassKind::Traced) {
      JournalAtCkpt.push_back(Journal);
      SnapshotBytes.push_back(
          static_cast<double>(fileBytes(Store.snapshotPath())));
      Spans.push_back({NextOpId++, "checkpoint", "", C0 - Base, C1 - Base});
    }
  }
}

std::string Bench::counts(const service::ServiceSnapshot &Snap, const Rig &R,
                          const std::string &Dir, std::size_t ExportBytesEnd) {
  std::uint64_t Regions = 0, Triggers = 0;
  for (const service::StreamSnapshot &St : Snap.Streams) {
    Regions += St.RegionsFormed;
    Triggers += St.FormationTriggers;
  }
  std::string Out = "regions=" + std::to_string(Regions) +
                    " phase_changes=" + std::to_string(Snap.PhaseChanges) +
                    " formation_triggers=" + std::to_string(Triggers) +
                    " samples=" + std::to_string(Snap.TotalSamples) +
                    " ucr_samples=" + std::to_string(Snap.UcrSamples) +
                    " export_bytes=" + std::to_string(ExportBytesEnd);
  if (S.Durable)
    Out += " trace_bytes=" + std::to_string(R.Recorder.bytesWritten()) +
           " journal_bytes=" +
           std::to_string(fileBytes(R.Store->journalPath())) +
           " snapshot_bytes=" +
           std::to_string(fileBytes(R.Store->snapshotPath())) +
           " dir_bytes=" + std::to_string(dirBytes(Dir));
  return Out;
}

void Bench::runPass(PassKind Kind) {
  const bool Traced = Kind == PassKind::Traced;
  const std::string Dir = TmpDir + "/pass" + std::to_string(PassCount++);
  const std::size_t N = Order.size();
  std::fill(Times.begin(), Times.end(), BatchTimes{});
  std::fill(NextOfStream.begin(), NextOfStream.end(), 0);
  Spans.clear();
  NextOpId = N;
  Ops = {};
  WorkerHook Hook;
  if (Traced || !Cpus.empty())
    Hook = [this, Traced](std::size_t Shard, const service::SampleBatch &B) {
      if (!Cpus.empty())
        pinThisThreadOnce(Cpus[1 + Shard]);
      // Each stream is served by one worker, so its counter has one
      // writer; the main thread reads Times only after stop().
      if (Traced)
        Times[BatchIds[B.Stream][NextOfStream[B.Stream]++]].HookAt = nowNs();
    };

  const double RssBefore = residentMiB();
  std::unique_ptr<Rig> R = buildRig(S, In, Dir, Traced, std::move(Hook));
  service::MonitorService &Svc = *R->Service;

  // Timed phase: the producer loop.
  double InPhaseNs = 0; // checkpoints and scrapes inside the loop
  const std::int64_t Begin = nowNs();
  for (std::size_t I = 0; I < N; ++I) {
    if (S.Durable && I > 0 && I % CheckpointEvery == 0) {
      if (Traced)
        JournalAtCkpt.push_back(
            static_cast<double>(fileBytes(R->Store->journalPath())));
      const std::int64_t C0 = nowNs();
      const bool Ok = Svc.checkpoint();
      const std::int64_t C1 = nowNs();
      if (!Ok)
        fail("checkpoint commit failed");
      InPhaseNs += static_cast<double>(C1 - C0);
      if (Kind == PassKind::Timed)
        Ops.Checkpoint.push_back(static_cast<double>(C1 - C0) * 1e-6);
      if (Traced) {
        const std::uint64_t Id = NextOpId++;
        Spans.push_back({Id, "checkpoint", "", C0 - Begin, C1 - Begin});
        Spans.push_back({Id, "trace.record", "checkpoint",
                         R->Timed->checkpointStart() - Begin,
                         R->Timed->checkpointEnd() - Begin});
      }
    }
    if (S.ScrapeEvery && I > 0 && I % S.ScrapeEvery == 0)
      InPhaseNs += scrape(*R, Kind, Begin);
    const auto [Stream, K] = Order[I];
    BatchTimes &T = Times[I];
    if (Traced)
      T.GenStart = nowNs();
    service::SampleBatch B{Stream, In.Streams[Stream].Batches[K]};
    if (R->Timed)
      R->Timed->setSlot(&T);
    T.SubmitStart = nowNs();
    Svc.submit(std::move(B));
    T.SubmitEnd = nowNs();
  }
  const std::int64_t DrainStart = nowNs();
  if (S.Workers) {
    const std::int64_t Deadline = DrainStart + 60'000'000'000LL;
    for (;;) {
      const service::ServiceSnapshot Snap = Svc.snapshot();
      if (Snap.BatchesProcessed + Snap.BatchesDropped >= Snap.BatchesSubmitted)
        break;
      if (nowNs() > Deadline) {
        fail("workers did not drain within 60 s");
        break;
      }
      std::this_thread::yield();
    }
  }
  const std::int64_t End = nowNs();
  if (Kind == PassKind::Warmup) {
    // What stays resident once freed pages are handed back: the
    // service's own memory, not the allocator's slack or the batches
    // that were in flight.
    malloc_trim(0);
    RssMiB.push_back(residentMiB() - RssBefore);
  }

  // Everything below is outside the timed phase.
  Svc.stop();
  const service::ServiceSnapshot Snap = Svc.snapshot();
  std::uint64_t PassFailed =
      N - std::min<std::uint64_t>(N, Snap.BatchesProcessed);
  for (std::size_t St = 0; St < In.Streams.size(); ++St)
    if (countsOf(Snap.Streams[St]) != Ref.Counts[St]) {
      PassFailed += S.BatchesPerStream;
      fail("stream " + std::to_string(St) + " (" + S.Programs[St] +
           ") disagrees with the bare RegionMonitor");
    }
  PassFailed = std::min<std::uint64_t>(PassFailed, N);
  if (PassFailed)
    fail(std::to_string(PassFailed) + " batches failed in one pass");
  if (Kind != PassKind::Warmup) {
    Attempted += N;
    Failed += PassFailed;
  }
  const std::size_t ExportBytesEnd = obs::exportPrometheus(R->Registry).size();
  const std::string PassCounts = counts(Snap, *R, Dir, ExportBytesEnd);

  const double PhaseS = static_cast<double>(End - Begin) * 1e-9;
  if (Kind == PassKind::Timed) {
    PhaseUntracedS.push_back(PhaseS);
    PassRate.push_back(static_cast<double>(In.Samples) / PhaseS);
    // Per-pass percentiles, then the median over passes: a burst of host
    // noise that hits a few passes does not move the figure.
    std::vector<double> Us;
    Us.reserve(N);
    for (const BatchTimes &T : Times)
      Us.push_back(static_cast<double>(T.SubmitEnd - T.SubmitStart) * 1e-3);
    SubmitP50Us.push_back(median(Us));
    SubmitP99Us.push_back(quantile(Us, 0.99));
  }
  double ProcessPassNs = 0;
  if (Traced) {
    PhaseTracedS.push_back(PhaseS);
    Refused += Snap.BatchesPoisoned + Snap.BatchesQuarantined +
               Snap.BatchesRejected;
    Dropped += Snap.BatchesDropped;
    if (S.Durable) {
      TraceBytesPerSample.push_back(
          static_cast<double>(R->Recorder.bytesWritten()) /
          static_cast<double>(In.Samples));
      SnapshotBytes.push_back(
          static_cast<double>(fileBytes(R->Store->snapshotPath())));
      DirBytes.push_back(static_cast<double>(dirBytes(Dir)));
    }
    ProcessPassNs = analyseTrace(Begin, End, DrainStart, InPhaseNs);
  }

  if (!S.ScrapeEvery)
    for (std::size_t I = 0; I < PostPhaseScrapes; ++I)
      scrape(*R, Kind, Begin);
  restoreAndCheck(*R, Dir, Kind, Begin);
  if (Kind == PassKind::Timed) {
    const auto Mean = [](const std::vector<double> &V) {
      return V.empty() ? 0 : std::accumulate(V.begin(), V.end(), 0.0) /
                                 static_cast<double>(V.size());
    };
    CheckpointMs.push_back(Mean(Ops.Checkpoint));
    RestoreMs.push_back(Mean(Ops.Restore));
    ScrapeMs.push_back(Mean(Ops.Scrape));
  }
  if (Fingerprint.empty())
    Fingerprint = PassCounts + " restore=" + RestoreOutcome;
  else if (Fingerprint != PassCounts + " restore=" + RestoreOutcome)
    fail("counts differ between passes of one seed");

  if (Traced) {
    // The bare layers, replayed on the same batches outside the pass.
    const Reference Again = runReference(In);
    if (Again.Counts != Ref.Counts)
      fail("the bare RegionMonitor is not deterministic");
    const auto Samples = static_cast<double>(In.Samples);
    ObserveNs.push_back(Again.ObserveSeconds * 1e9 / Samples);
    // Inline, service.process is the part of submit no probe inside it
    // times; the bare replay of the same batches measures it again.
    if (S.Workers == 0 && Again.ObserveSeconds > 0)
      CoreGaps.push_back(ProcessPassNs / (Again.ObserveSeconds * 1e9) - 1);
    AttribNs.push_back(attributionSeconds(In, Again) * 1e9 / Samples);
    LastSpans.swap(Spans);
  }
  R.reset();
  fs::remove_all(Dir);
  // A durable pass leaves megabytes of writeback behind (renaming the
  // compacted journal over the old one starts flushing it); let it land
  // here, outside any timed span, rather than in the next pass.
  flushFileSystem(TmpDir);
}

double Bench::analyseTrace(std::int64_t Begin, std::int64_t End,
                           std::int64_t DrainStart, double InPhaseNs) {
  const bool Inline = S.Workers == 0;
  double ProcessSum = 0, TopSum = InPhaseNs;
  std::uint64_t BadNesting = 0;
  std::vector<double> Waits;
  for (std::size_t I = 0; I < Times.size(); ++I) {
    const BatchTimes &T = Times[I];
    const bool HasRec = T.RecStart >= 0;
    const double Submit = static_cast<double>(T.SubmitEnd - T.SubmitStart);
    const double Rec = HasRec ? static_cast<double>(T.RecEnd - T.RecStart) : 0;
    // Inline: the hook fires inside submit, between admission and
    // processing. Threaded: submit ends at the enqueue; the hook fires on
    // the worker once the batch leaves the queue.
    const double Admit =
        Inline ? static_cast<double>(T.HookAt - T.SubmitStart) : Submit;
    const double Process =
        Inline ? std::max(0.0, static_cast<double>(T.SubmitEnd - T.HookAt))
               : 0;
    const bool Nested =
        T.HookAt >= T.SubmitStart && (!Inline || T.HookAt <= T.SubmitEnd) &&
        (!HasRec || (T.SubmitStart <= T.RecStart && T.RecStart <= T.RecEnd &&
                     T.RecEnd <= (Inline ? T.HookAt : T.SubmitEnd)));
    BadNesting += Nested ? 0 : 1;
    // A layer's self time is its span minus the part its child covers.
    const double AdmitSelf = std::max(0.0, Admit - Rec);
    ProcessSum += Process;
    TopSum += static_cast<double>(T.SubmitStart - T.GenStart) + Submit;
    AdmitSelfNs += AdmitSelf;
    ProcessNs += Process;
    RecordNs += Rec;
    if (!Inline)
      Waits.push_back(
          std::max<double>(0, static_cast<double>(T.HookAt - T.SubmitEnd)) *
          1e-3);
    Spans.push_back({I, "gen", "", T.GenStart - Begin, T.SubmitStart - Begin});
    Spans.push_back(
        {I, "submit", "", T.SubmitStart - Begin, T.SubmitEnd - Begin});
    Spans.push_back({I, "service.admit", "submit", T.SubmitStart - Begin,
                     (Inline ? T.HookAt : T.SubmitEnd) - Begin});
    if (HasRec)
      Spans.push_back({I, "trace.record", "service.admit", T.RecStart - Begin,
                       T.RecEnd - Begin});
    if (Inline)
      Spans.push_back({I, "service.process", "submit", T.HookAt - Begin,
                       T.SubmitEnd - Begin});
    else
      Spans.push_back({I, "service.queue_wait", "", T.SubmitEnd - Begin,
                       T.HookAt - Begin});
  }
  if (!Waits.empty()) {
    QueueWaitP50Us.push_back(median(Waits));
    QueueWaitP99Us.push_back(quantile(Waits, 0.99));
  }
  TracedBatches += Times.size();
  TopSum += static_cast<double>(End - DrainStart);
  Spans.push_back({NextOpId++, "drain", "", DrainStart - Begin, End - Begin});
  PhaseNs += static_cast<double>(End - Begin);
  CoveredNs += TopSum;
  if (BadNesting)
    fail(std::to_string(BadNesting) + " batches with mis-nested spans");
  return ProcessSum;
}

void Bench::reconcile() {
  if (PhaseNs == 0)
    return;
  CoverageGap = std::abs(PhaseNs - CoveredNs) / PhaseNs;
  CoreGap = median(CoreGaps);
  if (std::abs(CoreGap) > CoreTolerance)
    fail("service.process is not explained by the bare core replay");
  if (CoverageGap > CoverageTolerance)
    fail("spans do not cover the timed phase");
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

struct Metric {
  const char *Name;
  const char *Unit;
  double Value;
  std::string Note;
};

std::string jsonNumber(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

void Bench::report(double Elapsed, double StealPct) {
  std::vector<Metric> M;
  const auto Count = [](std::size_t N) { return "n=" + std::to_string(N); };
  if (!Opt.Trace) {
    M.push_back({"samples_per_s", "samples/s", median(PassRate),
                 "median of " + std::to_string(PassRate.size()) +
                     " passes of " + std::to_string(In.Samples) + " samples"});
    const std::string PerPass = "median over " +
                                std::to_string(SubmitP50Us.size()) +
                                " passes of " + std::to_string(Order.size()) +
                                " submits";
    M.push_back({"submit_p50_us", "us", median(SubmitP50Us), PerPass});
    M.push_back({"submit_p99_us", "us", median(SubmitP99Us), PerPass});
    const std::string OfPassMeans =
        "median over " + std::to_string(CheckpointMs.size()) +
        " passes of the pass mean";
    M.push_back({"checkpoint_ms", "ms", median(CheckpointMs), OfPassMeans});
    M.push_back({"restore_ms", "ms", median(RestoreMs),
                 OfPassMeans + ", outcome=" + RestoreOutcome});
    M.push_back({"scrape_ms", "ms", median(ScrapeMs), OfPassMeans});
    M.push_back({"rss_mb", "MiB", median(RssMiB),
                 Count(RssMiB.size()) + " warm-up passes"});
    M.push_back({"setup_s", "s", median(SetupS), Count(SetupS.size())});
  } else {
    const auto PerBatch = [this](double Ns) {
      return TracedBatches ? Ns / static_cast<double>(TracedBatches) * 1e-3
                           : 0.0;
    };
    std::uint64_t Active = 0, Triggers = 0, Ucr = 0, Total = 0;
    for (const StreamCounts &C : Ref.Counts) {
      Active += C.ActiveRegions;
      Triggers += C.FormationTriggers;
      Ucr += C.UcrSamples;
      Total += C.TotalSamples;
    }
    const double Untraced = median(PhaseUntracedS);
    const std::string Batches = Count(TracedBatches);
    M.push_back(
        {"service.admit_self_us", "us", PerBatch(AdmitSelfNs), Batches});
    M.push_back({"service.process_us", "us", PerBatch(ProcessNs), Batches});
    const std::string WaitPasses =
        "median over " + std::to_string(QueueWaitP50Us.size()) + " passes";
    M.push_back({"service.queue_wait_p50_us", "us", median(QueueWaitP50Us),
                 WaitPasses});
    M.push_back({"service.queue_wait_p99_us", "us", median(QueueWaitP99Us),
                 WaitPasses});
    M.push_back({"service.queue_depth_max", "count", QueueDepthMax, ""});
    M.push_back({"service.batches_refused", "count",
                 static_cast<double>(Refused), ""});
    M.push_back({"service.batches_dropped", "count",
                 static_cast<double>(Dropped), ""});
    M.push_back({"core.observe_ns_per_sample", "ns", median(ObserveNs),
                 Count(ObserveNs.size())});
    M.push_back({"core.attrib_ns_per_sample", "ns", median(AttribNs),
                 Count(AttribNs.size())});
    M.push_back(
        {"core.regions_active", "count", static_cast<double>(Active), ""});
    M.push_back({"core.formation_triggers", "count",
                 static_cast<double>(Triggers), ""});
    M.push_back({"core.ucr_frac", "ratio",
                 Total ? static_cast<double>(Ucr) / static_cast<double>(Total)
                       : 0.0,
                 ""});
    M.push_back({"trace.record_us", "us", PerBatch(RecordNs), Batches});
    M.push_back({"trace.bytes_per_sample", "bytes",
                 median(TraceBytesPerSample), ""});
    M.push_back({"persist.journal_bytes_at_checkpoint", "bytes",
                 median(JournalAtCkpt), Count(JournalAtCkpt.size())});
    M.push_back({"persist.snapshot_bytes", "bytes", median(SnapshotBytes), ""});
    M.push_back({"persist.restore_skip_frac", "ratio", median(SkipFrac),
                 Count(SkipFrac.size())});
    M.push_back({"persist.dir_bytes", "bytes", median(DirBytes),
                 "durable pass directory at phase end"});
    M.push_back({"obs.snapshot_us", "us", median(SnapshotUs),
                 Count(SnapshotUs.size())});
    M.push_back(
        {"obs.export_us", "us", median(ExportUs), Count(ExportUs.size())});
    M.push_back({"obs.export_bytes", "bytes", median(ExportBytes), ""});
    M.push_back({"sampling.record_ns_per_sample", "ns", median(SamplerNs),
                 Count(SamplerNs.size())});
    M.push_back({"tracing.overhead_pct", "%",
                 Untraced > 0 ? (median(PhaseTracedS) / Untraced - 1) * 100
                              : 0.0,
                 "traced vs untraced pass medians, " +
                     std::to_string(PhaseTracedS.size()) + " pairs"});
    M.push_back({"tracing.coverage_gap_pct", "%", CoverageGap * 100,
                 "all traced passes; tolerance " +
                     jsonNumber(CoverageTolerance * 100) + "%"});
    M.push_back({"tracing.process_core_gap_pct", "%", CoreGap * 100,
                 CoreGaps.empty()
                     ? std::string("threaded: not applicable")
                     : "median of " + std::to_string(CoreGaps.size()) +
                           " traced passes; tolerance " +
                           jsonNumber(CoreTolerance * 100) + "%"});
  }

  // Host steal is printed, not reported: it explains a slow run.
  std::printf(
      "passes=%zu elapsed_s=%.2f attempted=%llu failed=%llu steal_pct=%.1f\n",
      PassCount, Elapsed, static_cast<unsigned long long>(Attempted),
      static_cast<unsigned long long>(Failed), StealPct);
  std::printf("counts %s\n", Fingerprint.c_str());
  for (const std::string &F : Failures)
    std::printf("FAILED: %s\n", F.c_str());
  for (const Metric &X : M)
    std::printf("%-36s %14.4f %-9s %s\n", X.Name, X.Value, X.Unit,
                X.Note.c_str());
  std::string Json = std::string("{\"correct\": ") +
                     (Correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(Attempted) +
                     ", \"failed\": " + std::to_string(Failed) +
                     ", \"metrics\": {";
  for (std::size_t I = 0; I < M.size(); ++I)
    Json += std::string(I ? ", " : "") + "\"" + M[I].Name +
            "\": {\"value\": " + jsonNumber(M[I].Value) + ", \"unit\": \"" +
            M[I].Unit + "\"}";
  Json += "}}";
  std::printf("%s\n", Json.c_str());
}

int Bench::run() {
  TmpDir = Opt.TmpRoot + "/" + S.Name + "-" + std::to_string(Opt.Seed) + "-" +
           std::to_string(getpid());
  fs::remove_all(TmpDir);
  fs::create_directories(TmpDir);
  struct Cleanup {
    std::string Dir;
    ~Cleanup() {
      std::error_code Ec;
      fs::remove_all(Dir, Ec);
    }
  } Guard{TmpDir};

  if (S.Workers) {
    // One CPU per thread keeps the producer/worker hand-off from
    // depending on where the scheduler happens to place the threads.
    Cpus = pickCpus(S.Workers + 1);
    if (!Cpus.empty())
      pinThisThreadOnce(Cpus[0]);
    std::string Pins;
    for (int Cpu : Cpus) {
      if (!Pins.empty())
        Pins += ',';
      Pins += std::to_string(Cpu);
    }
    std::printf("pinned producer,workers to cpus=%s\n",
                Cpus.empty() ? "none" : Pins.c_str());
  }
  flushFileSystem(TmpDir); // earlier runs' writeback is not ours to time
  setUp();
  for (std::size_t I = 0; I < WarmupPasses; ++I) {
    malloc_trim(0); // the baseline holds no freed pages either
    runPass(PassKind::Warmup);
  }
  const auto [Steal0, Total0] = cpuTicks();
  const std::int64_t Start = nowNs();
  std::size_t Timed = 0;
  while (Timed < MinTimedPasses ||
         static_cast<double>(nowNs() - Start) * 1e-9 < Opt.Seconds) {
    const bool TracedPass = Opt.Trace && Timed % 2 == 1;
    runPass(TracedPass ? PassKind::Traced : PassKind::Timed);
    ++Timed;
  }
  const double Elapsed = static_cast<double>(nowNs() - Start) * 1e-9;
  const auto [Steal1, Total1] = cpuTicks();
  const double StealPct =
      Total1 > Total0 ? 100.0 * static_cast<double>(Steal1 - Steal0) /
                            static_cast<double>(Total1 - Total0)
                      : 0.0;
  reconcile();
  if (!Opt.SpansPath.empty() && Opt.Trace) {
    if (std::FILE *F = std::fopen(Opt.SpansPath.c_str(), "w")) {
      std::fprintf(F, "batch,span,parent,start_ns,end_ns\n");
      for (const SpanRow &Sp : LastSpans)
        std::fprintf(F, "%llu,%s,%s,%lld,%lld\n",
                     static_cast<unsigned long long>(Sp.Id), Sp.Name,
                     Sp.Parent, static_cast<long long>(Sp.Start),
                     static_cast<long long>(Sp.End));
      std::fclose(F);
    } else {
      fail("cannot write spans to " + Opt.SpansPath);
    }
  }
  report(Elapsed, StealPct);
  return Correct ? 0 : 1;
}

int usage(const char *Why) {
  std::fprintf(stderr,
               "error: %s\nusage: pipebench --workload corpus|durable|fanin "
               "--seed N --seconds S --trace 0|1 [--tmp DIR] [--spans FILE]\n",
               Why);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opt;
  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + Arg).c_str());
    const std::string Val = Argv[++I];
    if (Arg == "--workload")
      Opt.Workload = Val;
    else if (Arg == "--seed")
      Opt.Seed = std::strtoull(Val.c_str(), nullptr, 10);
    else if (Arg == "--seconds")
      Opt.Seconds = std::strtod(Val.c_str(), nullptr);
    else if (Arg == "--trace")
      Opt.Trace = Val == "1";
    else if (Arg == "--tmp")
      Opt.TmpRoot = Val;
    else if (Arg == "--spans")
      Opt.SpansPath = Val;
    else
      return usage(("unknown flag " + Arg).c_str());
  }
  const std::optional<Spec> S = specFor(Opt.Workload);
  if (!S)
    return usage("unknown workload");
#ifdef NDEBUG
  const char *Assertions = "off";
#else
  const char *Assertions = "on";
#endif
  std::printf("pipebench workload=%s seed=%llu seconds=%g trace=%d build=%s "
              "assertions=%s nproc=%u\n",
              Opt.Workload.c_str(), static_cast<unsigned long long>(Opt.Seed),
              Opt.Seconds, Opt.Trace ? 1 : 0, PIPEBENCH_BUILD_TYPE, Assertions,
              std::thread::hardware_concurrency());
  std::printf("streams=%zu batch_samples=%zu batches_per_pass=%zu workers=%s\n",
              S->Programs.size(), S->BatchSamples,
              S->Programs.size() * S->BatchesPerStream,
              S->Workers ? std::to_string(S->Workers).c_str() : "inline");
  std::fflush(stdout);
  try {
    Bench B(*S, Opt);
    return B.run();
  } catch (const std::exception &E) {
    std::fprintf(stderr, "error: %s\n", E.what());
    return 1;
  }
}
