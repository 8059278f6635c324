//===- support/SegmentIndex.cpp - Flat static stabbing index --------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/SegmentIndex.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>
#include <utility>

using namespace regmon;

void SegmentIndex::build(std::span<const Interval> Intervals) {
  Bounds.clear();
  Payloads.clear();

  for (const Interval &I : Intervals) {
    assert(I.Start < I.End && "empty or inverted interval");
    Bounds.push_back(I.Start);
    Bounds.push_back(I.End);
  }
  std::sort(Bounds.begin(), Bounds.end());
  Bounds.erase(std::unique(Bounds.begin(), Bounds.end()), Bounds.end());

  // An interval covers exactly the rows (First, Last] between its own
  // endpoints: returned as the half-open [First + 1, Last + 1).
  const auto rowsOf = [this](const Interval &I) {
    const auto First =
        std::lower_bound(Bounds.begin(), Bounds.end(), I.Start) -
        Bounds.begin();
    const auto Last =
        std::lower_bound(Bounds.begin() + First, Bounds.end(), I.End) -
        Bounds.begin();
    return std::pair{static_cast<std::size_t>(First) + 1,
                     static_cast<std::size_t>(Last) + 1};
  };

  // Count each row's covering intervals one slot to the right, so the
  // prefix sum turns the counts into row starts.
  Offsets.assign(Bounds.size() + 2, 0);
  std::size_t Entries = 0;
  for (const Interval &I : Intervals) {
    const auto [First, Last] = rowsOf(I);
    for (std::size_t R = First; R < Last; ++R)
      ++Offsets[R + 1];
    Entries += Last - First;
  }
  assert(Entries <= std::numeric_limits<std::uint32_t>::max() &&
         "covering entries overflow the CSR offsets");
  std::partial_sum(Offsets.begin(), Offsets.end(), Offsets.begin());

  // Fill in input order, advancing each row start as its cursor. Each
  // cursor ends on the next row's start, so one shift restores them.
  Payloads.resize(Entries);
  for (const Interval &I : Intervals) {
    const auto [First, Last] = rowsOf(I);
    for (std::size_t R = First; R < Last; ++R)
      Payloads[Offsets[R]++] = I.Value;
  }
  std::copy_backward(Offsets.begin(), Offsets.end() - 1, Offsets.end());
  Offsets.front() = 0;
}
