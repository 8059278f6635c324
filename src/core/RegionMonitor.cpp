//===- core/RegionMonitor.cpp - The region monitoring framework -----------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/RegionMonitor.h"

#include <algorithm>
#include <cassert>
#include <map>

using namespace regmon;
using namespace regmon::core;

namespace {

obs::EventKind phaseEntryKind(LocalPhaseState S) {
  switch (S) {
  case LocalPhaseState::Unstable:
    return obs::EventKind::PhaseEnteredUnstable;
  case LocalPhaseState::LessUnstable:
    return obs::EventKind::PhaseEnteredLessUnstable;
  case LocalPhaseState::Stable:
    return obs::EventKind::PhaseEnteredStable;
  }
  return obs::EventKind::PhaseEnteredUnstable;
}

} // namespace

RegionMonitor::RegionMonitor(const CodeMap &CM, RegionMonitorConfig Cfg)
    : Map(CM), Config(Cfg),
      Metric(makeSimilarity(Config.Similarity.Kind, &SimilarityFellBack)) {
  assert(Config.UcrTriggerFraction >= 0 && Config.UcrTriggerFraction <= 1 &&
         "UCR trigger must be a fraction");
  assert(Config.MaxRegions > 0 && "must allow at least one region");
  // An out-of-enum engine value (version skew, fuzzed config) selects the
  // naive oracle: always correct, merely slower.
  IncrementalSimilarity =
      Config.Similarity.Engine == SimilarityEngine::Incremental &&
      Metric->supportsMoments();
}

void RegionMonitor::setEventHandler(EventHandler H) {
  Handler = std::move(H);
}

void RegionMonitor::attachObservability(const obs::MonitorInstruments *O) {
  Obs = O;
  if (Obs)
    // Always 1 ("auto", the one kernel): the gauge stays in the metric
    // catalogue so exports keep their bytes.
    obs::setGauge(Obs->HotpathKernel, 1.0);
  if (Obs && SimilarityFellBack) {
    obs::addTo(Obs->SimilarityFallbacks);
    obs::recordEvent(Obs->Tracer, obs::EventKind::SimilarityFallback,
                     Obs->Stream, 0, Intervals);
  }
}

void RegionMonitor::emit(RegionEvent::Kind K, RegionId Id) {
  if (Obs) {
    switch (K) {
    case RegionEvent::Kind::Formed:
      obs::addTo(Obs->RegionsFormed);
      obs::recordEvent(Obs->Tracer, obs::EventKind::RegionFormed, Obs->Stream,
                       Id, Intervals);
      break;
    case RegionEvent::Kind::Pruned:
      obs::addTo(Obs->RegionsRetired);
      obs::recordEvent(Obs->Tracer, obs::EventKind::RegionRetired, Obs->Stream,
                       Id, Intervals);
      break;
    case RegionEvent::Kind::BecameStable:
    case RegionEvent::Kind::BecameUnstable:
      // The state-entry event (with its r) is recorded at the observe
      // site, which also sees the Unstable -> LessUnstable entries this
      // callback never fires for.
      obs::addTo(Obs->PhaseChanges);
      break;
    case RegionEvent::Kind::MissPhaseChange:
      obs::addTo(Obs->MissPhaseChanges);
      obs::recordEvent(Obs->Tracer, obs::EventKind::MissPhaseChange,
                       Obs->Stream, Id, Intervals,
                       State[Id].MissDetector ? State[Id].MissDetector->lastR()
                                              : 0.0);
      break;
    }
  }
  if (Handler)
    Handler(RegionEvent{K, Id, Intervals});
}

bool RegionMonitor::isActive(RegionId Id) const {
  assert(Id < Regions.size() && "unknown region");
  return State[Id].Active;
}

std::vector<RegionId> RegionMonitor::activeRegionIds() const {
  std::vector<RegionId> Out;
  for (RegionId Id = 0; Id < Regions.size(); ++Id)
    if (State[Id].Active)
      Out.push_back(Id);
  return Out;
}

std::size_t RegionMonitor::activeRegionCount() const {
  std::size_t N = 0;
  for (const RegionState &RS : State)
    N += RS.Active ? 1 : 0;
  return N;
}

std::size_t RegionMonitor::stableRegionCount() const {
  std::size_t N = 0;
  for (const RegionState &RS : State)
    N += RS.Active && RS.Detector->state() == LocalPhaseState::Stable ? 1 : 0;
  return N;
}

std::uint64_t RegionMonitor::totalPhaseChanges() const {
  std::uint64_t N = 0;
  for (const RegionState &RS : State)
    N += RS.Stats.PhaseChanges;
  return N;
}

std::uint64_t RegionMonitor::totalSamples() const {
  std::uint64_t N = 0;
  for (const RegionState &RS : State)
    N += RS.Stats.TotalSamples;
  return N;
}

void RegionMonitor::reset() {
  Index.clear();
  Regions.clear();
  State.clear();
  Timelines.clear();
  UcrHistory.clear();
  Intervals = 0;
  FormationTriggers = 0;
  UndersampledIntervals = 0;
  OutOfRegionSamples = 0;
}

const LocalPhaseDetector &RegionMonitor::detector(RegionId Id) const {
  assert(Id < State.size() && "unknown region");
  return *State[Id].Detector;
}

const RegionStats &RegionMonitor::stats(RegionId Id) const {
  assert(Id < State.size() && "unknown region");
  return State[Id].Stats;
}

std::uint64_t RegionMonitor::lastSampleCount(RegionId Id) const {
  assert(Id < State.size() && "unknown region");
  return State[Id].Curr.total();
}

double RegionMonitor::recentMissFraction(RegionId Id) const {
  assert(Id < State.size() && "unknown region");
  return State[Id].RecentMiss.mean();
}

std::vector<RegionMonitor::DelinquentLoad>
RegionMonitor::delinquentLoads(RegionId Id, std::size_t N) const {
  assert(Id < State.size() && "unknown region");
  const std::vector<std::uint64_t> &Bins = State[Id].CumulativeMisses;
  std::vector<DelinquentLoad> All;
  for (std::size_t Bin = 0; Bin < Bins.size(); ++Bin)
    if (Bins[Bin] > 0)
      All.push_back(DelinquentLoad{
          Regions[Id].Start + static_cast<Addr>(Bin) * InstrBytes,
          Bins[Bin]});
  std::stable_sort(All.begin(), All.end(),
                   [](const DelinquentLoad &A, const DelinquentLoad &B) {
                     return A.Misses > B.Misses;
                   });
  if (All.size() > N)
    All.resize(N);
  return All;
}

const LocalPhaseDetector &RegionMonitor::missDetector(RegionId Id) const {
  assert(Config.TrackMissPhases && "miss channel is not enabled");
  assert(Id < State.size() && "unknown region");
  return *State[Id].MissDetector;
}

double RegionMonitor::lastUcrFraction() const {
  return UcrHistory.empty() ? 0.0 : UcrHistory.back();
}

std::span<const std::uint32_t>
RegionMonitor::sampleTimeline(RegionId Id) const {
  assert(Config.RecordTimelines && "timelines were not recorded");
  assert(Id < Timelines.size() && "unknown region");
  return Timelines[Id].Samples;
}

std::span<const double> RegionMonitor::rTimeline(RegionId Id) const {
  assert(Config.RecordTimelines && "timelines were not recorded");
  assert(Id < Timelines.size() && "unknown region");
  return Timelines[Id].R;
}

std::span<const LocalPhaseState>
RegionMonitor::stateTimeline(RegionId Id) const {
  assert(Config.RecordTimelines && "timelines were not recorded");
  assert(Id < Timelines.size() && "unknown region");
  return Timelines[Id].States;
}

REGMON_PURE void
RegionMonitor::observeInterval(std::span<const Sample> Samples) {
  assert(!Samples.empty() && "an interval carries a full sample buffer");

  // Fresh histograms for this interval. Incremental engine: prime the
  // cross-moment accumulators and fetch each stable set's base pointer.
  // Pointers are re-fetched every interval -- never cached across
  // intervals -- because a checkpoint restore can reallocate a detector's
  // stable-set buffer.
  const bool Fast = IncrementalSimilarity;
  const bool FastMiss = Fast && Config.TrackMissPhases;
  for (RegionState &RS : State)
    if (RS.Active) {
      RS.Curr.reset();
      RS.CurrMiss.reset();
      RS.Sxy = RS.MissSxy = 0;
      if (Fast)
        RS.Stable = RS.Detector->stableSet().data();
      if (FastMiss)
        RS.MissStable = RS.MissDetector->stableSet().data();
    }

  // 1. Attribute every sample; unmatched samples belong to the UCR. Each
  // sample's lookup is issued one sample ahead: crediting hits branches on
  // where a random PC landed and mispredicts often, and the next lookup --
  // branch-free and independent of those branches -- then completes in
  // the shadow of the recovery instead of after it.
  UcrScratch.clear();
  std::uint64_t RejectedNow = 0;
  std::span<const RegionId> NextHits;
  if (!Samples.empty())
    NextHits = Index.find(Samples.front().Pc);
  for (std::size_t I = 0; I < Samples.size(); ++I) {
    const Sample &S = Samples[I];
    const std::span<const RegionId> Hits = NextHits;
    if (I + 1 < Samples.size())
      NextHits = Index.find(Samples[I + 1].Pc);
    if (Hits.empty()) {
      UcrScratch.push_back(S.Pc);
      continue;
    }
    for (RegionId Id : Hits) {
      RegionState &RS = State[Id];
      const std::ptrdiff_t Bin = RS.Curr.tryAddSampleAt(S.Pc);
      if (Bin < 0) {
        // The attribution index said the PC falls inside this region but
        // the histogram's bounds disagree -- a corrupted PC or a hostile
        // restore desynchronized the two. Count it, never write OOB.
        ++RejectedNow;
        continue;
      }
      if (Fast)
        RS.Sxy += RS.Stable[Bin];
      if (S.DCacheMiss) {
        if (FastMiss) {
          // Same bounds as the cycle histogram, which just accepted the
          // PC, so the miss histogram cannot reject it.
          const std::ptrdiff_t MissBin = RS.CurrMiss.tryAddSampleAt(S.Pc);
          assert(MissBin >= 0 && "miss histogram disagrees on bounds");
          if (MissBin >= 0)
            RS.MissSxy += RS.MissStable[static_cast<std::size_t>(MissBin)];
        } else {
          RS.CurrMiss.addSample(S.Pc);
        }
      }
    }
  }
  OutOfRegionSamples += RejectedNow;
  const double UcrFraction = static_cast<double>(UcrScratch.size()) /
                             static_cast<double>(Samples.size());
  UcrHistory.push_back(UcrFraction);

  // Degraded mode: an interval below the sample-mass gate is evidence of
  // a faulty collector, not of the program. Its samples still count (they
  // are real), but it neither forms regions nor advances any detector.
  const bool Undersampled = Samples.size() < Config.MinIntervalSamples;
  if (Undersampled)
    ++UndersampledIntervals;

  // 2. Working-set change? Build regions for the new hot code.
  if (!Undersampled && UcrFraction > Config.UcrTriggerFraction)
    triggerFormation(UcrScratch);

  // 3. Local phase detection, one region at a time. Regions formed in step
  // 2 start analyzing with the *next* interval (their histograms for this
  // one are empty).
  for (RegionId Id = 0; Id < Regions.size(); ++Id) {
    RegionState &St = State[Id];
    if (!St.Active)
      continue;
    RegionStats &RS = St.Stats;
    LocalPhaseDetector &D = *St.Detector;
    ++RS.LifetimeIntervals;
    const InstrHistogram &Curr = St.Curr;
    if (!Curr.empty()) {
      ++RS.ActiveIntervals;
      RS.TotalSamples += Curr.total();
      St.LastSampledInterval = Intervals;
      if (!Undersampled) {
        if (Fast)
          D.observeMoments(Curr, St.Sxy);
        else
          D.observe(Curr.bins());
        if (Obs) {
          if (D.lastObservationComparedR())
            obs::addTo(Obs->SimilarityCompares);
          obs::observeIn(Obs->PhaseR, D.lastR());
          const LocalPhaseState Now = D.state();
          if (Now != D.stateBeforeLastObserve())
            obs::recordEvent(Obs->Tracer, phaseEntryKind(Now), Obs->Stream,
                             Id, Intervals, D.lastR());
        }
        if (D.lastObservationChangedPhase())
          emit(D.state() == LocalPhaseState::Stable
                   ? RegionEvent::Kind::BecameStable
                   : RegionEvent::Kind::BecameUnstable,
               Id);
      }

      // Performance characteristics: DPI accounting and delinquent loads.
      // Miss counts are real samples, so they accrue even when degraded;
      // only the windowed feedback signal (which drives unpatch
      // decisions) is withheld from under-sampled evidence.
      const InstrHistogram &Misses = St.CurrMiss;
      RS.TotalMisses += Misses.total();
      if (!Undersampled)
        St.RecentMiss.add(static_cast<double>(Misses.total()) /
                          static_cast<double>(Curr.total()));
      if (!Misses.empty()) {
        std::span<const std::uint32_t> Bins = Misses.bins();
        for (std::size_t Bin = 0; Bin < Bins.size(); ++Bin)
          St.CumulativeMisses[Bin] += Bins[Bin];
      }
      if (!Undersampled && Config.TrackMissPhases && !Misses.empty()) {
        LocalPhaseDetector &MD = *St.MissDetector;
        if (Fast)
          MD.observeMoments(Misses, St.MissSxy);
        else
          MD.observe(Misses.bins());
        RS.MissPhaseChanges = MD.phaseChanges();
        if (MD.lastObservationChangedPhase() &&
            !D.lastObservationChangedPhase())
          emit(RegionEvent::Kind::MissPhaseChange, Id);
      }
    }
    RS.PhaseChanges = D.phaseChanges();
    if (D.state() == LocalPhaseState::Stable)
      ++RS.StableIntervals;
    if (Config.RecordTimelines) {
      RegionTimelines &T = Timelines[Id];
      T.Samples.push_back(static_cast<std::uint32_t>(Curr.total()));
      T.R.push_back(D.lastR());
      T.States.push_back(D.state());
    }
  }

  // 4. Optional cost control: stop monitoring long-cold regions.
  if (Config.PruneColdRegions)
    pruneCold();

  // Per-interval observability roll-up: a handful of relaxed atomic adds,
  // never per-sample work, so full instrumentation stays within the <3%
  // overhead budget (bench_obs_overhead).
  if (Obs) {
    obs::addTo(Obs->Intervals);
    obs::addTo(Obs->SamplesTotal, Samples.size());
    obs::addTo(Obs->SamplesUcr, UcrScratch.size());
    obs::addTo(Obs->SamplesOutOfRegion, RejectedNow);
    if (Undersampled)
      obs::addTo(Obs->UndersampledIntervals);
    obs::setGauge(Obs->LastUcrFraction, UcrFraction);
    obs::setGauge(Obs->ActiveRegions,
                  static_cast<double>(activeRegionCount()));
    obs::observeIn(Obs->IntervalSamples,
                   static_cast<double>(Samples.size()));
  }

  ++Intervals;
}

void RegionMonitor::triggerFormation(std::span<const Addr> UcrPcs) {
  ++FormationTriggers;
  if (Obs)
    obs::addTo(Obs->FormationTriggers);

  // Group the unmonitored samples by the formable region (if any) that the
  // code oracle proposes for them. std::map keys give deterministic order.
  struct Candidate {
    CodeRegionInfo Info;
    std::size_t Count = 0;
  };
  std::map<std::pair<Addr, Addr>, Candidate> Candidates;
  for (Addr Pc : UcrPcs) {
    std::optional<CodeRegionInfo> Info = Map.regionFor(Pc);
    if (!Info)
      continue; // non-regionable code: stays in the UCR forever
    auto [It, Inserted] =
        Candidates.try_emplace({Info->Start, Info->End});
    if (Inserted)
      It->second.Info = std::move(*Info);
    ++It->second.Count;
  }

  // Hottest candidates first.
  std::vector<const Candidate *> Ranked;
  Ranked.reserve(Candidates.size());
  for (const auto &[Bounds, C] : Candidates)
    Ranked.push_back(&C);
  std::stable_sort(Ranked.begin(), Ranked.end(),
                   [](const Candidate *A, const Candidate *B) {
                     return A->Count > B->Count;
                   });

  std::size_t ActiveCount = activeRegionCount();
  std::size_t FormedNow = 0;
  for (const Candidate *C : Ranked) {
    if (FormedNow >= Config.MaxNewRegionsPerTrigger ||
        ActiveCount >= Config.MaxRegions)
      break;
    if (C->Count < Config.MinRegionSamples)
      break; // ranked by count: all later candidates are colder

    // Skip exact duplicates of an active region (its samples would have
    // been attributed, but a just-formed region can race its first
    // samples within this same interval).
    const bool Duplicate = std::any_of(
        Regions.begin(), Regions.end(), [&](const Region &R) {
          return State[R.Id].Active && R.Start == C->Info.Start &&
                 R.End == C->Info.End;
        });
    if (Duplicate)
      continue;

    addRegion({.Name = C->Info.Name,
               .Start = C->Info.Start,
               .End = C->Info.End,
               .FormedAtInterval = Intervals});
    ++ActiveCount;
    ++FormedNow;
    emit(RegionEvent::Kind::Formed, Regions.back().Id);
  }
  if (FormedNow > 0)
    rebuildIndex();
}

RegionMonitor::RegionState &RegionMonitor::addRegion(Region R) {
  R.Id = static_cast<RegionId>(Regions.size());
  const std::size_t Instrs = R.instrCount();
  const auto NewDetector = [&] {
    return std::make_unique<LocalPhaseDetector>(Instrs, *Metric, Config.Lpd);
  };
  State.push_back(RegionState{
      .Curr = InstrHistogram(R.Start, R.End),
      .CurrMiss = InstrHistogram(R.Start, R.End),
      .Detector = NewDetector(),
      .MissDetector = Config.TrackMissPhases ? NewDetector() : nullptr,
      .LastSampledInterval = Intervals,
      .CumulativeMisses = std::vector<std::uint64_t>(Instrs, 0),
      .RecentMiss = WindowedStats(Config.MissWindowIntervals)});
  if (Config.RecordTimelines)
    Timelines.emplace_back();
  Regions.push_back(std::move(R));
  return State.back();
}

void RegionMonitor::pruneCold() {
  bool Retired = false;
  for (RegionId Id = 0; Id < Regions.size(); ++Id) {
    RegionState &RS = State[Id];
    if (!RS.Active ||
        Intervals - RS.LastSampledInterval < Config.PruneAfterIdleIntervals)
      continue;
    RS.Active = false;
    Retired = true;
    emit(RegionEvent::Kind::Pruned, Id);
  }
  if (Retired)
    rebuildIndex();
}

void RegionMonitor::rebuildIndex() {
  // Region bounds come from the CodeMap or a validated snapshot, both
  // instruction-aligned, so an interval covers at most one segment per
  // instruction: the table's size is bounded by the histogram bins the
  // active regions already hold.
  std::vector<SegmentIndex::Interval> Live;
  for (RegionId Id = 0; Id < Regions.size(); ++Id)
    if (State[Id].Active)
      Live.push_back({Regions[Id].Start, Regions[Id].End, Id});
  Index.build(Live);
}
