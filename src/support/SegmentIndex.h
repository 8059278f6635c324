//===- support/SegmentIndex.h - Flat static stabbing index -----*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A static answer to "which intervals contain this address?": the sorted
/// unique endpoints of a set of half-open intervals cut the address space
/// into elementary segments, and every address inside one segment is
/// covered by exactly the same intervals. The index stores, per segment,
/// the payloads of those intervals in CSR form (one offsets array into one
/// payload array), so a query is one binary search over a flat array
/// followed by a slice -- no tree walk, no virtual call, no allocation.
/// The search is branch-free: sampled PCs land in segments at random, so
/// the branches of std::upper_bound mispredict at nearly every level.
///
/// The index is rebuilt from scratch whenever its interval set changes
/// (O(n log n + covering entries)); it is meant for sets that change at a
/// much coarser grain than they are queried. It is immutable between
/// builds and keeps no query-side cache, so concurrent const queries are
/// race-free.
///
//===----------------------------------------------------------------------===//

#ifndef REGMON_SUPPORT_SEGMENTINDEX_H
#define REGMON_SUPPORT_SEGMENTINDEX_H

#include "support/Contracts.h"
#include "support/Types.h"

#include <cstdint>
#include <span>
#include <vector>

namespace regmon {

/// A static stabbing index over half-open address intervals carrying
/// 32-bit payloads.
class SegmentIndex {
public:
  /// One input interval [Start, End) with its payload.
  struct Interval {
    Addr Start = 0; ///< Inclusive lower bound.
    Addr End = 0;   ///< Exclusive upper bound.
    std::uint32_t Value = 0;
  };

  /// Replaces the index's contents with \p Intervals. Start < End is
  /// required; duplicates (even with equal payloads) are kept. Within a
  /// segment, payloads appear in the order their intervals appear in
  /// \p Intervals. Reuses the index's storage.
  void build(std::span<const Interval> Intervals);

  /// Returns the payloads of every interval containing \p Pc, in build
  /// order. The span stays valid until the next \ref build.
  REGMON_HOT std::span<const std::uint32_t> find(Addr Pc) const {
    // The number of endpoints <= Pc (std::upper_bound's answer, counted
    // without data-dependent branches) is Pc's row. Rows 0 (below every
    // interval) and Bounds.size() (at or past the last end) are empty, so
    // no address needs a range check.
    const Addr *B = Bounds.data();
    std::size_t Row = 0;
    std::size_t N = Bounds.size();
    while (N > 1) {
      const std::size_t Half = N / 2;
      Row += static_cast<std::size_t>(B[Row + Half - 1] <= Pc) * Half;
      N -= Half;
    }
    if (N == 1)
      Row += static_cast<std::size_t>(B[Row] <= Pc);
    return {Payloads.data() + Offsets[Row], Offsets[Row + 1] - Offsets[Row]};
  }

  /// Removes every interval (equivalent to building over none).
  void clear() { build({}); }

private:
  /// Sorted unique endpoints. Row R covers [Bounds[R - 1], Bounds[R]),
  /// with Bounds[-1] and Bounds[Bounds.size()] read as the ends of the
  /// address space.
  std::vector<Addr> Bounds;
  /// CSR row starts, one per row plus a terminator (Bounds.size() + 2
  /// entries): row R's payloads are Payloads[Offsets[R], Offsets[R + 1]).
  std::vector<std::uint32_t> Offsets = {0, 0};
  std::vector<std::uint32_t> Payloads;
};

} // namespace regmon

#endif // REGMON_SUPPORT_SEGMENTINDEX_H
