//===- sim/ProgramCodeMap.h - CodeMap over a synthetic program -*- C++ -*-===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Adapts a synthetic Program to the region-formation CodeMap interface.
/// This plays the role of the region-building machinery of [13]: a hot PC
/// resolves to the innermost *regionable* loop containing it; PCs in
/// non-regionable code (cycles spanning procedure boundaries) resolve to
/// nothing and stay unmonitored forever.
///
//===----------------------------------------------------------------------===//

#ifndef REGMON_SIM_PROGRAMCODEMAP_H
#define REGMON_SIM_PROGRAMCODEMAP_H

#include "core/CodeMap.h"
#include "sim/Program.h"
#include "support/SegmentIndex.h"

namespace regmon::sim {

/// CodeMap implementation over a synthetic program's loop table.
class ProgramCodeMap final : public core::CodeMap {
public:
  /// Creates a map over \p P, which must outlive the map. Programs are
  /// immutable, so the map indexes the regionable loops once, here.
  explicit ProgramCodeMap(const Program &P);

  std::optional<core::CodeRegionInfo> regionFor(Addr Pc) const override;

private:
  const Program &Prog;
  /// Regionable loops by extent (payload = LoopId).
  SegmentIndex Loops;
};

} // namespace regmon::sim

#endif // REGMON_SIM_PROGRAMCODEMAP_H
