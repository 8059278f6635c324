//===- tests/SupportSegmentIndexTest.cpp - Flat segment index -------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flat segment table answers the same stabbing question as the
/// paper's interval tree and region list (Fig. 16), so both serve as its
/// oracles: over seeded interval sets rich in nesting, partial overlap,
/// shared endpoints, adjacency and exact duplicates, every boundary probe
/// must return the same hit multiset from all three.
///
//===----------------------------------------------------------------------===//

#include "support/SegmentIndex.h"

#include "core/Attribution.h"
#include "support/IntervalTree.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

using namespace regmon;

namespace {

std::vector<std::uint32_t> sorted(std::span<const std::uint32_t> Hits) {
  std::vector<std::uint32_t> Out(Hits.begin(), Hits.end());
  std::sort(Out.begin(), Out.end());
  return Out;
}

TEST(SegmentIndex, EmptyIndexMatchesNothing) {
  SegmentIndex Index;
  for (Addr Pc : {Addr{0}, Addr{4}, Addr{0x1000}, ~Addr{0}})
    EXPECT_TRUE(Index.find(Pc).empty()) << Pc;

  Index.build({});
  EXPECT_TRUE(Index.find(0).empty());
}

TEST(SegmentIndex, HalfOpenBoundsAndBuildOrder) {
  // Inner is listed before outer, so it leads in their shared segment.
  const std::vector<SegmentIndex::Interval> Intervals = {
      {0x1040, 0x1080, 7}, {0x1000, 0x1100, 3}, {0x1100, 0x1200, 9}};
  SegmentIndex Index;
  Index.build(Intervals);

  EXPECT_TRUE(Index.find(0x0ffc).empty());
  EXPECT_EQ(sorted(Index.find(0x1000)), (std::vector<std::uint32_t>{3}));
  const std::span<const std::uint32_t> Shared = Index.find(0x1040);
  EXPECT_EQ(std::vector<std::uint32_t>(Shared.begin(), Shared.end()),
            (std::vector<std::uint32_t>{7, 3}));
  EXPECT_EQ(sorted(Index.find(0x1080)), (std::vector<std::uint32_t>{3}));
  // Adjacent intervals: 0x1100 is outer's end and the next one's start.
  EXPECT_EQ(sorted(Index.find(0x10fc)), (std::vector<std::uint32_t>{3}));
  EXPECT_EQ(sorted(Index.find(0x1100)), (std::vector<std::uint32_t>{9}));
  EXPECT_TRUE(Index.find(0x1200).empty());
  EXPECT_TRUE(Index.find(~Addr{0}).empty());

  Index.clear();
  EXPECT_TRUE(Index.find(0x1040).empty());
}

TEST(SegmentIndex, DuplicatesAreKept) {
  const std::vector<SegmentIndex::Interval> Intervals = {
      {0x10, 0x20, 1}, {0x10, 0x20, 1}, {0x10, 0x20, 2}};
  SegmentIndex Index;
  Index.build(Intervals);
  EXPECT_EQ(sorted(Index.find(0x18)), (std::vector<std::uint32_t>{1, 1, 2}));
}

/// Differential sweep: random inserts and removes over a small
/// instruction-aligned address window, each followed by a full rebuild,
/// checked point-for-point against IntervalTree::stab and ListAttributor.
class SegmentIndexFuzzTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SegmentIndexFuzzTest, MatchesTreeAndList) {
  Rng Random(GetParam());
  std::vector<SegmentIndex::Interval> Live;
  IntervalTree Tree;
  core::ListAttributor List;
  SegmentIndex Index;

  constexpr Addr Base = 0x4000;
  constexpr std::uint64_t Slots = 64; // instruction slots in the window
  const auto slotAddr = [](std::uint64_t Slot) {
    return Base + Slot * InstrBytes;
  };

  const std::size_t Ops = 300;
  for (std::size_t Op = 0; Op < Ops; ++Op) {
    const auto Value = static_cast<std::uint32_t>(Random.nextBelow(16));
    const bool Remove = !Live.empty() && Random.nextBelow(4) == 0;
    if (Remove) {
      const std::size_t Pick = Random.nextBelow(Live.size());
      const SegmentIndex::Interval R = Live[Pick];
      ASSERT_TRUE(Tree.erase(R.Start, R.End, R.Value));
      // The list drops the first identical entry; so does Live, keeping
      // their orders equal.
      List.remove(R.Value, R.Start, R.End);
      Live.erase(std::find_if(Live.begin(), Live.end(),
                              [&R](const SegmentIndex::Interval &E) {
                                return E.Start == R.Start && E.End == R.End &&
                                       E.Value == R.Value;
                              }));
    } else {
      SegmentIndex::Interval R;
      const SegmentIndex::Interval *Other =
          Live.empty() ? nullptr : &Live[Random.nextBelow(Live.size())];
      switch (Other ? Random.nextBelow(5) : 0) {
      case 0: { // fresh: partial overlaps and shared endpoints by chance
        const std::uint64_t S = Random.nextBelow(Slots);
        R = {slotAddr(S), slotAddr(S + 1 + Random.nextBelow(Slots / 4)),
             Value};
        break;
      }
      case 1: // identical duplicate, same payload
        R = *Other;
        break;
      case 2: { // nested inside another interval
        const std::uint64_t Len = (Other->End - Other->Start) / InstrBytes;
        const std::uint64_t S = Random.nextBelow(Len);
        const std::uint64_t E = S + 1 + Random.nextBelow(Len - S);
        R = {Other->Start + S * InstrBytes, Other->Start + E * InstrBytes,
             Value};
        break;
      }
      case 3: // adjacent: starts where another ends
        R = {Other->End, Other->End + (1 + Random.nextBelow(8)) * InstrBytes,
             Value};
        break;
      default: // encloses another, sharing its start
        R = {Other->Start,
             Other->End + Random.nextBelow(8) * InstrBytes, Value};
        break;
      }
      Tree.insert(R.Start, R.End, R.Value);
      List.insert(R.Value, R.Start, R.End);
      Live.push_back(R);
    }
    Index.build(Live);

    std::vector<Addr> Probes;
    Addr Min = ~Addr{0}, Max = 0;
    for (const SegmentIndex::Interval &R : Live) {
      for (Addr P : {R.Start, R.End})
        for (Addr Delta : {Addr{0}, Addr{4}}) {
          Probes.push_back(P + Delta);
          if (P >= Delta)
            Probes.push_back(P - Delta);
        }
      Min = std::min(Min, R.Start);
      Max = std::max(Max, R.End);
    }
    if (!Live.empty()) {
      Probes.push_back(Min - 1);
      Probes.push_back(0);
      Probes.push_back(Max);
      Probes.push_back(Max + 1);
      Probes.push_back(~Addr{0});
    }
    for (Addr P : Probes) {
      std::vector<std::uint32_t> FromTree;
      Tree.stab(P, FromTree);
      std::sort(FromTree.begin(), FromTree.end());
      // The list walks its entries in insertion order, as the index
      // lists a segment's payloads in build order: compare unsorted.
      std::vector<core::RegionId> FromList;
      List.lookup(P, FromList);
      const std::span<const std::uint32_t> Hits = Index.find(P);
      ASSERT_EQ(std::vector<std::uint32_t>(Hits.begin(), Hits.end()),
                FromList)
          << "op " << Op << " pc " << P;
      ASSERT_EQ(sorted(Hits), FromTree) << "op " << Op << " pc " << P;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SegmentIndexFuzzTest,
                         ::testing::Range<std::uint64_t>(200, 212));

} // namespace
