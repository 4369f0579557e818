//===- tests/DifferentialTests.cpp - Multi-strategy differential tests ----===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
// The paper's fixpoint is a property of the lattice and the jump
// functions, not of the iteration order: the worklist scheme, the naive
// round-robin sweep, and the binding multi-graph formulation must land
// on exactly the same VAL sets. This file locks that in as a
// differential property over seeded random programs and the whole
// benchmark suite, at both the SolveResult and the PipelineResult
// granularity.
//
//===----------------------------------------------------------------------===//

#include "ipcp/Pipeline.h"
#include "ipcp/Solver.h"

#include "TestHelpers.h"
#include "workloads/RandomProgram.h"
#include "workloads/Suite.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace ipcp;

namespace {

constexpr SolverStrategy kStrategies[] = {SolverStrategy::Worklist,
                                          SolverStrategy::RoundRobin,
                                          SolverStrategy::BindingGraph};

const char *strategyName(SolverStrategy S) {
  switch (S) {
  case SolverStrategy::Worklist:
    return "worklist";
  case SolverStrategy::RoundRobin:
    return "round-robin";
  case SolverStrategy::BindingGraph:
    return "binding-graph";
  }
  return "?";
}

/// Every VAL cell of every procedure, rendered in a canonical order.
/// Effort counters are deliberately excluded: they are where the
/// strategies legitimately differ.
std::string valFingerprint(const SolveResult &S) {
  std::ostringstream OS;
  for (ProcId P = 0; P != S.Val.size(); ++P) {
    OS << 'p' << P << ':';
    for (const auto &[Sym, Value] : S.constants(P))
      OS << " (" << Sym << ',' << Value << ')';
    // Constants alone don't distinguish TOP from BOTTOM; count both.
    size_t Tops = 0, Bottoms = 0;
    for (const auto &[Sym, V] : S.Val[P]) {
      Tops += V.isTop();
      Bottoms += V.isBottom();
    }
    OS << " T=" << Tops << " B=" << Bottoms << '\n';
  }
  return OS.str();
}

std::string sourceFor(uint64_t Seed, bool Recursion) {
  RandomSpec Spec;
  Spec.Seed = Seed;
  Spec.Procs = 5 + int(Seed % 5);
  Spec.Globals = 2 + int(Seed % 4);
  Spec.AllowRecursion = Recursion;
  return generateRandomProgram(Spec);
}

} // namespace

//===----------------------------------------------------------------------===//
// SolveResult granularity: identical VAL sets, cell for cell.
//===----------------------------------------------------------------------===//

class SolverDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SolverDifferentialTest, StrategiesProduceIdenticalValSets) {
  for (bool Recursion : {false, true}) {
    test::FullAnalysis A =
        test::analyze(sourceFor(GetParam(), Recursion));
    JumpFunctionOptions JfOpts; // polynomial + RJF + MOD
    ProgramJumpFunctions Jfs = test::buildJfs(A, JfOpts);

    SolveResult Base = solveConstants(A.Symbols, *A.CG, Jfs,
                                      SolverStrategy::Worklist);
    std::string BaseFp = valFingerprint(Base);
    for (SolverStrategy S : kStrategies) {
      SolveResult R = solveConstants(A.Symbols, *A.CG, Jfs, S);
      EXPECT_EQ(BaseFp, valFingerprint(R))
          << strategyName(S) << " diverged, seed " << GetParam()
          << (Recursion ? " (recursive)" : "");
      EXPECT_EQ(Base.numConstantCells(), R.numConstantCells());
    }
  }
}

TEST_P(SolverDifferentialTest, StrategiesAgreeWithoutModOrRjf) {
  // The agreement must hold for every jump-function environment, not
  // just the default: worst-case kills (no MOD) and no return jump
  // functions exercise different jf shapes.
  test::FullAnalysis A = test::analyze(sourceFor(GetParam(), false));

  JumpFunctionOptions NoMod;
  NoMod.UseMod = false;
  ProgramJumpFunctions JfsNoMod = test::buildJfs(A, NoMod);

  JumpFunctionOptions NoRjf;
  NoRjf.UseReturnJumpFunctions = false;
  ProgramJumpFunctions JfsNoRjf = test::buildJfs(A, NoRjf);

  for (const ProgramJumpFunctions *Jfs : {&JfsNoMod, &JfsNoRjf}) {
    std::string BaseFp = valFingerprint(
        solveConstants(A.Symbols, *A.CG, *Jfs, SolverStrategy::Worklist));
    for (SolverStrategy S : kStrategies)
      EXPECT_EQ(BaseFp,
                valFingerprint(solveConstants(A.Symbols, *A.CG, *Jfs, S)))
          << strategyName(S) << " diverged, seed " << GetParam();
  }
}

TEST_P(SolverDifferentialTest, LoweringsAreBoundedByLatticeDepth) {
  // Figure 1's termination argument: each cell lowers at most twice,
  // under every strategy.
  test::FullAnalysis A = test::analyze(sourceFor(GetParam(), false));
  JumpFunctionOptions JfOpts;
  ProgramJumpFunctions Jfs = test::buildJfs(A, JfOpts);
  size_t Cells = 0;
  for (ProcId P = 0; P != A.CG->numProcs(); ++P)
    Cells += A.Symbols.interproceduralParams(P).size();
  for (SolverStrategy S : kStrategies) {
    SolveResult R = solveConstants(A.Symbols, *A.CG, Jfs, S);
    EXPECT_LE(R.CellLowerings, 2 * Cells) << strategyName(S);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverDifferentialTest,
                         ::testing::Range<uint64_t>(1, 31));

//===----------------------------------------------------------------------===//
// PipelineResult granularity: identical CONSTANTS(p) sets end to end.
//===----------------------------------------------------------------------===//

namespace {

std::string constantsFingerprint(const PipelineResult &R) {
  std::ostringstream OS;
  OS << R.SubstitutedConstants << '|' << R.ConstantPrints << '\n';
  for (size_t P = 0; P != R.Constants.size(); ++P) {
    OS << R.ProcNames[P] << ':';
    for (const auto &[Name, Value] : R.Constants[P])
      OS << " (" << Name << ',' << Value << ')';
    OS << '\n';
  }
  for (unsigned N : R.PerProcSubstituted)
    OS << N << ' ';
  for (const std::string &Name : R.NeverCalled)
    OS << Name << ' ';
  return OS.str();
}

} // namespace

class PipelineDifferentialTest : public ::testing::TestWithParam<size_t> {};

TEST_P(PipelineDifferentialTest, SuiteConstantsAgreeAcrossStrategies) {
  const WorkloadProgram &W = benchmarkSuite()[GetParam()];
  std::string BaseFp;
  for (SolverStrategy S : kStrategies) {
    PipelineOptions Opts;
    Opts.Strategy = S;
    PipelineResult R = runPipeline(W.Source, Opts);
    ASSERT_TRUE(R.Ok) << R.Error;
    std::string Fp = constantsFingerprint(R);
    if (BaseFp.empty())
      BaseFp = Fp;
    else
      EXPECT_EQ(BaseFp, Fp) << strategyName(S) << " diverged on "
                            << W.Name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, PipelineDifferentialTest, ::testing::Range<size_t>(0, 12),
    [](const ::testing::TestParamInfo<size_t> &Info) {
      return benchmarkSuite()[Info.param].Name;
    });
