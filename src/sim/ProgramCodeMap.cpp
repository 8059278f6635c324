//===- sim/ProgramCodeMap.cpp - CodeMap over a synthetic program ----------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/ProgramCodeMap.h"

#include <vector>

using namespace regmon;
using namespace regmon::sim;

ProgramCodeMap::ProgramCodeMap(const Program &P) : Prog(P) {
  // Non-regionable loops are left out: an enclosing regionable loop (if
  // any) can still claim their PCs.
  std::vector<SegmentIndex::Interval> Regionable;
  for (const Loop &L : Prog.loops())
    if (L.Regionable)
      Regionable.push_back({L.Start, L.End, L.Id});
  Loops.build(Regionable);
}

std::optional<core::CodeRegionInfo>
ProgramCodeMap::regionFor(Addr Pc) const {
  // Innermost regionable loop containing Pc; the index lists covering
  // loops in loop-table order, so the first of equally sized ones wins.
  const Loop *Best = nullptr;
  for (std::uint32_t Id : Loops.find(Pc)) {
    const Loop &L = Prog.loop(Id);
    if (!Best || L.End - L.Start < Best->End - Best->Start)
      Best = &L;
  }
  if (!Best)
    return std::nullopt;
  return core::CodeRegionInfo{Best->Start, Best->End, Best->Name};
}
