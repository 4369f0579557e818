//===- tests/SolverTests.cpp - ipcp/Solver unit tests ---------------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "ipcp/Solver.h"

#include "TestHelpers.h"
#include "workloads/Suite.h"

#include <gtest/gtest.h>

using namespace ipcp;
using namespace ipcp::test;

namespace {

struct Solved {
  FullAnalysis A;
  ProgramJumpFunctions Jfs;
  SolveResult R;
};

Solved solve(const std::string &Source,
             JumpFunctionKind Kind = JumpFunctionKind::Polynomial,
             SolverStrategy Strategy = SolverStrategy::Worklist) {
  Solved S;
  S.A = analyze(Source);
  JumpFunctionOptions Opts;
  Opts.Kind = Kind;
  S.Jfs = buildJfs(S.A, Opts);
  S.R = solveConstants(S.A.Symbols, *S.A.CG, S.Jfs, Strategy);
  return S;
}

} // namespace

TEST(Solver, SingleEdgeConstant) {
  Solved S = solve(
      "proc main()\n  call f(5)\nend\nproc f(x)\n  print x\nend\n");
  LatticeValue V = S.R.valueOf(S.A.proc("f"), S.A.symbolIn("f", "x"));
  ASSERT_TRUE(V.isConst());
  EXPECT_EQ(V.value(), 5);
}

TEST(Solver, AgreeingCallSitesStayConstant) {
  Solved S = solve(R"(proc main()
  call f(5)
  call f(5)
end
proc f(x)
  print x
end
)");
  EXPECT_TRUE(
      S.R.valueOf(S.A.proc("f"), S.A.symbolIn("f", "x")).isConst());
}

TEST(Solver, ConflictingCallSitesMeetToBottom) {
  Solved S = solve(R"(proc main()
  call f(5)
  call f(6)
end
proc f(x)
  print x
end
)");
  EXPECT_TRUE(
      S.R.valueOf(S.A.proc("f"), S.A.symbolIn("f", "x")).isBottom());
}

TEST(Solver, PropagatesThroughChains) {
  Solved S = solve(R"(proc main()
  call a(9)
end
proc a(x)
  call b(x)
end
proc b(y)
  call c(y + 1)
end
proc c(z)
  print z
end
)");
  LatticeValue V = S.R.valueOf(S.A.proc("c"), S.A.symbolIn("c", "z"));
  ASSERT_TRUE(V.isConst());
  EXPECT_EQ(V.value(), 10);
}

TEST(Solver, NeverCalledProcsKeepTop) {
  Solved S = solve(R"(proc main()
end
proc orphan(x)
  print x
end
)");
  // "x retains the value T only if the procedure containing x is never
  // called" (paper §2).
  EXPECT_TRUE(S.R.valueOf(S.A.proc("orphan"), S.A.symbolIn("orphan", "x"))
                  .isTop());
}

TEST(Solver, EntryGlobalsStartBottom) {
  Solved S = solve("global g\nproc main()\n  print g\nend\n");
  EXPECT_TRUE(S.R.valueOf(S.A.proc("main"), S.A.symbol("g")).isBottom());
}

TEST(Solver, GlobalInitializerPrologueFeedsCallees) {
  Solved S = solve(R"(global g = 31
proc main()
  call f()
end
proc f()
  print g
end
)");
  LatticeValue V = S.R.valueOf(S.A.proc("f"), S.A.symbol("g"));
  ASSERT_TRUE(V.isConst());
  EXPECT_EQ(V.value(), 31);
}

TEST(Solver, RecursionConvergesToBottomOnVaryingParam) {
  Solved S = solve(R"(proc main()
  call count(10)
end
proc count(n)
  if (n > 0) then
    call count(n - 1)
  end if
end
)");
  EXPECT_TRUE(S.R.valueOf(S.A.proc("count"), S.A.symbolIn("count", "n"))
                  .isBottom());
}

TEST(Solver, RecursionKeepsInvariantConstant) {
  Solved S = solve(R"(proc main()
  call walk(10, 3)
end
proc walk(n, stride)
  if (n > 0) then
    call walk(n - stride, stride)
  end if
end
)");
  // stride is passed through unchanged around the cycle.
  LatticeValue V =
      S.R.valueOf(S.A.proc("walk"), S.A.symbolIn("walk", "stride"));
  ASSERT_TRUE(V.isConst());
  EXPECT_EQ(V.value(), 3);
}

TEST(Solver, ConstantsSetIsSortedAndFiltered) {
  Solved S = solve(R"(global g
proc main()
  g = 2
  call f(1)
end
proc f(x)
  print x + g
end
)");
  auto Constants = S.R.constants(S.A.proc("f"));
  ASSERT_EQ(Constants.size(), 2u);
  EXPECT_TRUE(std::is_sorted(Constants.begin(), Constants.end()));
}

TEST(Solver, CountsEffort) {
  Solved S = solve(
      "proc main()\n  call f(5)\nend\nproc f(x)\n  print x\nend\n");
  EXPECT_GT(S.R.ProcVisits, 0u);
  EXPECT_GT(S.R.JfEvaluations, 0u);
  EXPECT_GT(S.R.CellLowerings, 0u);
}

TEST(Solver, CellLoweringsRespectLatticeDepth) {
  // Each cell lowers at most twice (paper §2), bounding total changes.
  for (const WorkloadProgram &W : benchmarkSuite()) {
    Solved S = solve(W.Source);
    size_t Cells = 0;
    for (const auto &Map : S.R.Val)
      Cells += Map.size();
    EXPECT_LE(S.R.CellLowerings, 2 * Cells) << W.Name;
  }
}

//===----------------------------------------------------------------------===//
// Strategy equivalence and effort ordering over the whole suite.
//===----------------------------------------------------------------------===//

class SolverSuiteTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SolverSuiteTest, StrategiesAgreeAndWorklistDoesLessWork) {
  const WorkloadProgram &W = benchmarkSuite()[GetParam()];
  Solved Wl = solve(W.Source, JumpFunctionKind::Polynomial,
                    SolverStrategy::Worklist);
  Solved Rr = solve(W.Source, JumpFunctionKind::Polynomial,
                    SolverStrategy::RoundRobin);
  Solved Bg = solve(W.Source, JumpFunctionKind::Polynomial,
                    SolverStrategy::BindingGraph);
  for (ProcId P = 0; P != Wl.A.CG->numProcs(); ++P) {
    EXPECT_EQ(Wl.R.constants(P), Rr.R.constants(P)) << W.Name;
    EXPECT_EQ(Wl.R.constants(P), Bg.R.constants(P)) << W.Name;
  }
  EXPECT_LE(Wl.R.JfEvaluations, Rr.R.JfEvaluations) << W.Name;
  // The binding graph re-evaluates a jump function only when one of its
  // support cells lowers, so its evaluation count obeys the paper's
  // §3.1.5 bound: one initial pass over every edge plus at most two
  // lowerings per support entry (the lattice depth).
  size_t Edges = 0, SupportUses = 0;
  for (const auto &Sites : Bg.Jfs.PerSite)
    for (const auto &Site : Sites) {
      Edges += Site.Args.size() + Site.Globals.size();
      for (const auto &J : Site.Args)
        SupportUses += J.support().size();
      for (const auto &J : Site.Globals)
        SupportUses += J.support().size();
    }
  EXPECT_LE(Bg.R.JfEvaluations, Edges + 2 * SupportUses) << W.Name;
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, SolverSuiteTest, ::testing::Range<size_t>(0, 12),
    [](const ::testing::TestParamInfo<size_t> &Info) {
      return benchmarkSuite()[Info.param].Name;
    });
