//===- tests/WorkloadsTest.cpp - Workload catalogue -----------------------===//
//
// Part of the regmon project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "workloads/Workloads.h"

#include "sim/ProgramCodeMap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace regmon;
using namespace regmon::workloads;

namespace {

TEST(Workloads, CatalogueNamesAreUniqueAndExist) {
  const auto &Names = allNames();
  EXPECT_GE(Names.size(), 31u);
  const std::set<std::string> Unique(Names.begin(), Names.end());
  EXPECT_EQ(Unique.size(), Names.size());
  for (const std::string &Name : Names)
    EXPECT_TRUE(exists(Name)) << Name;
  EXPECT_FALSE(exists("999.nonesuch"));
}

TEST(Workloads, FigureSelectionsAreSubsets) {
  const std::set<std::string> All(allNames().begin(), allNames().end());
  for (const auto *List :
       {&fig3Names(), &fig6Names(), &fig13Names(), &fig17Names()})
    for (const std::string &Name : *List)
      EXPECT_TRUE(All.count(Name)) << Name;
  EXPECT_EQ(fig3Names().size(), 21u);
  EXPECT_EQ(fig6Names().size(), 23u);
  EXPECT_EQ(fig13Names().size(), 8u);
  EXPECT_EQ(fig17Names().size(), 4u);
}

/// Structural validity of every catalogued workload.
class WorkloadValidityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadValidityTest, BuildsConsistently) {
  const Workload W = make(GetParam());
  EXPECT_EQ(W.Name, GetParam());
  EXPECT_FALSE(W.Prog.loops().empty());
  EXPECT_TRUE(W.Script.validateAgainst(W.Prog));
  EXPECT_GT(W.Script.totalWork(), 0.0);
  ASSERT_EQ(W.Opportunities.size(), W.Prog.loops().size())
      << "every loop needs optimization ground truth";
  for (const auto &Opp : W.Opportunities) {
    EXPECT_GE(Opp.StallFraction, 0.0);
    EXPECT_LT(Opp.StallFraction, 1.0);
    EXPECT_GT(Opp.MismatchFactor, 0.0);
    EXPECT_LE(Opp.MismatchFactor, 1.0);
  }
}

TEST_P(WorkloadValidityTest, LoopsLieInsideProcedures) {
  const Workload W = make(GetParam());
  for (const sim::Loop &L : W.Prog.loops()) {
    const sim::Procedure &P = W.Prog.procedures()[L.ProcIndex];
    EXPECT_GE(L.Start, P.Start) << L.Name;
    EXPECT_LE(L.End, P.End) << L.Name;
    EXPECT_EQ(L.Start % InstrBytes, 0u);
    EXPECT_EQ(L.End % InstrBytes, 0u);
  }
}

TEST_P(WorkloadValidityTest, MixWeightsArePositiveFractions) {
  const Workload W = make(GetParam());
  for (const sim::Mix &M : W.Script.mixes()) {
    EXPECT_FALSE(M.Components.empty());
    const double Total = M.totalWeight();
    EXPECT_NEAR(Total, 1.0, 0.05) << "mixes should be ~normalized";
  }
}

TEST_P(WorkloadValidityTest, CodeMapMatchesLinearScan) {
  // Reference: the innermost regionable loop by a scan of the loop table,
  // the first in table order among equally sized ones.
  const Workload W = make(GetParam());
  const auto scan = [&W](Addr Pc) -> const sim::Loop * {
    const sim::Loop *Best = nullptr;
    for (const sim::Loop &L : W.Prog.loops()) {
      if (!L.Regionable || Pc < L.Start || Pc >= L.End)
        continue;
      if (!Best || L.End - L.Start < Best->End - Best->Start)
        Best = &L;
    }
    return Best;
  };
  Addr First = ~Addr{0}, Last = 0;
  for (const sim::Loop &L : W.Prog.loops()) {
    First = std::min(First, L.Start);
    Last = std::max(Last, L.End);
  }
  const sim::ProgramCodeMap Map(W.Prog);
  for (Addr Pc = First - 8; Pc < Last + 8; Pc += InstrBytes) {
    const sim::Loop *Expected = scan(Pc);
    const std::optional<core::CodeRegionInfo> Got = Map.regionFor(Pc);
    ASSERT_EQ(Got.has_value(), Expected != nullptr) << "pc " << Pc;
    if (!Got)
      continue;
    ASSERT_EQ(Got->Start, Expected->Start) << "pc " << Pc;
    ASSERT_EQ(Got->End, Expected->End) << "pc " << Pc;
    ASSERT_EQ(Got->Name, Expected->Name) << "pc " << Pc;
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadValidityTest,
                         ::testing::ValuesIn(allNames()),
                         [](const auto &Info) {
                           std::string Name = Info.param;
                           std::replace(Name.begin(), Name.end(), '.', '_');
                           return Name;
                         });

TEST(Workloads, McfUsesThePaperRegionNames) {
  const Workload W = make("181.mcf");
  std::set<std::string> Names;
  for (const sim::Loop &L : W.Prog.loops())
    Names.insert(L.Name);
  EXPECT_TRUE(Names.count("13134-133d4"));
  EXPECT_TRUE(Names.count("142c8-14318"));
  EXPECT_TRUE(Names.count("146f0-14770"));
}

TEST(Workloads, GapUsesThePaperRegionNames) {
  const Workload W = make("254.gap");
  std::set<std::string> Names;
  for (const sim::Loop &L : W.Prog.loops())
    Names.insert(L.Name);
  EXPECT_TRUE(Names.count("7ba2c-7ba78"));
  EXPECT_TRUE(Names.count("8d25c-8d314"));
}

TEST(Workloads, GapAndCraftyHaveNonRegionableHotCode) {
  for (const char *Name : {"254.gap", "186.crafty"}) {
    const Workload W = make(Name);
    const bool HasNonRegionable = std::any_of(
        W.Prog.loops().begin(), W.Prog.loops().end(),
        [](const sim::Loop &L) { return !L.Regionable; });
    EXPECT_TRUE(HasNonRegionable) << Name;
  }
}

TEST(Workloads, AmmpHasOneVeryLargeLoop) {
  const Workload W = make("188.ammp");
  const bool HasHuge = std::any_of(
      W.Prog.loops().begin(), W.Prog.loops().end(),
      [](const sim::Loop &L) { return L.instrCount() >= 512; });
  EXPECT_TRUE(HasHuge) << "the Fig. 13 granularity-breakdown region";
}

TEST(Workloads, Fig17SubjectsHavePaperStallFractions) {
  // [13]'s reported speedups imply these removable stall fractions.
  const Workload Mgrid = make("172.mgrid");
  EXPECT_NEAR(Mgrid.Opportunities[0].StallFraction, 0.074, 1e-9);
  const Workload Fma3d = make("191.fma3d");
  EXPECT_NEAR(Fma3d.Opportunities[0].StallFraction, 0.138, 1e-9);
  const Workload Mcf = make("181.mcf");
  EXPECT_NEAR(Mcf.Opportunities[0].StallFraction, 0.30, 1e-9);
}

TEST(Workloads, SyntheticWorkloadsAreSmall) {
  for (const char *Name :
       {"synthetic.steady", "synthetic.periodic", "synthetic.bottleneck"}) {
    const Workload W = make(Name);
    EXPECT_LE(W.Script.totalWork(), 16e9) << Name << " must run quickly";
  }
}

} // namespace
