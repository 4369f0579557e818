//===- bench/jf_cost_timing.cpp - Jump function cost study (§3.1.5) -------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's §3.1.5 discusses the *costs* of the four forward jump
/// functions: literal is a textual scan; the other three pay O(N) for
/// SSA-based value numbering; polynomial's propagation cost carries an
/// extra |support| factor that "approaches 1" in practice. This bench
/// measures:
///   * construction time per kind (suite programs and synthetic scaling),
///     each build on a fresh AnalysisSession with lowering, call graph,
///     MOD and aliases built outside the timed region,
///   * interprocedural propagation time per kind,
///   * the average polynomial support size (reported as a counter).
///
//===----------------------------------------------------------------------===//

#include "ipcp/AnalysisSession.h"
#include "ipcp/Pipeline.h"
#include "workloads/Suite.h"
#include "workloads/Synthetic.h"

#include <benchmark/benchmark.h>

#include <iostream>
#include <memory>

using namespace ipcp;

namespace {

CheckedProgram prepare(const std::string &Source) {
  CheckedProgram P = checkProgram(Source);
  if (!P.ok()) {
    std::cerr << P.Error;
    exit(1);
  }
  return P;
}

/// A fresh session over \p P with everything that precedes jump-function
/// generation already built: lowering, call graph, MOD and aliases. SSA,
/// value numbering and classification are left to the build.
std::unique_ptr<AnalysisSession> freshSession(CheckedProgram &P,
                                              const JumpFunctionOptions &Opts) {
  auto S = std::make_unique<AnalysisSession>(*P.Ctx, P.Symbols);
  S->callGraph();
  S->modRef(Opts.UseMod);
  S->refAlias(Opts.UseMod);
  return S;
}

/// One cold jump-function build per iteration: each runs on a fresh
/// session, whose setup and teardown stay outside the timed region.
template <typename Body>
void timeColdBuilds(benchmark::State &State, CheckedProgram &P,
                    const JumpFunctionOptions &Opts, Body Run) {
  for (auto _ : State) {
    State.PauseTiming();
    std::unique_ptr<AnalysisSession> S = freshSession(P, Opts);
    State.ResumeTiming();
    Run(*S);
    State.PauseTiming();
    S.reset();
    State.ResumeTiming();
  }
}

const std::string &suiteSource(const std::string &Name) {
  for (const WorkloadProgram &P : benchmarkSuite())
    if (P.Name == Name)
      return P.Source;
  std::cerr << "no suite program " << Name << "\n";
  exit(1);
}

JumpFunctionKind kindOf(int64_t Arg) {
  switch (Arg) {
  case 0:
    return JumpFunctionKind::Literal;
  case 1:
    return JumpFunctionKind::IntraConst;
  case 2:
    return JumpFunctionKind::PassThrough;
  default:
    return JumpFunctionKind::Polynomial;
  }
}

/// Construction cost per kind on the largest suite program (spec77).
void BM_Construction_spec77(benchmark::State &State) {
  static CheckedProgram P = prepare(suiteSource("spec77"));
  JumpFunctionOptions Opts;
  Opts.Kind = kindOf(State.range(0));
  size_t Forward = 0;
  double AvgSupport = 0;
  timeColdBuilds(State, P, Opts, [&](AnalysisSession &S) {
    ProgramJumpFunctions Jfs = buildJumpFunctions(S, Opts);
    Forward = Jfs.Stats.NumForward;
    AvgSupport = Jfs.Stats.avgPolySupport();
    benchmark::DoNotOptimize(Jfs);
  });
  State.SetLabel(jumpFunctionKindName(Opts.Kind));
  State.counters["forward_jfs"] = double(Forward);
  State.counters["avg_poly_support"] = AvgSupport;
}

/// Propagation cost per kind on spec77 (jump functions prebuilt).
void BM_Propagation_spec77(benchmark::State &State) {
  static CheckedProgram P = prepare(suiteSource("spec77"));
  JumpFunctionOptions Opts;
  Opts.Kind = kindOf(State.range(0));
  std::unique_ptr<AnalysisSession> S = freshSession(P, Opts);
  const CallGraph &CG = S->callGraph();
  ProgramJumpFunctions Jfs = buildJumpFunctions(*S, Opts);
  unsigned Evals = 0;
  for (auto _ : State) {
    SolveResult R = solveConstants(P.Symbols, CG, Jfs);
    Evals = R.JfEvaluations;
    benchmark::DoNotOptimize(R);
  }
  State.SetLabel(jumpFunctionKindName(Opts.Kind));
  State.counters["jf_evaluations"] = double(Evals);
}

/// Whole-analyzer cost per kind on spec77 (parse to counts).
void BM_EndToEnd_spec77(benchmark::State &State) {
  const std::string &Source = suiteSource("spec77");
  PipelineOptions Opts;
  Opts.Kind = kindOf(State.range(0));
  for (auto _ : State) {
    PipelineResult R = runPipeline(Source, Opts);
    benchmark::DoNotOptimize(R);
  }
  State.SetLabel(jumpFunctionKindName(Opts.Kind));
}

/// Scaling: polynomial construction + propagation on synthetic programs
/// of growing procedure count. The paper's §3.1.5 bound is O(N) in the
/// procedure size for construction; complexity should look near-linear.
void BM_Scaling_synthetic(benchmark::State &State) {
  SyntheticSpec Spec;
  Spec.Procs = static_cast<int>(State.range(0));
  CheckedProgram P = prepare(generateSynthetic(Spec));
  JumpFunctionOptions Opts;
  Opts.Kind = JumpFunctionKind::Polynomial;
  timeColdBuilds(State, P, Opts, [&](AnalysisSession &S) {
    ProgramJumpFunctions Jfs = buildJumpFunctions(S, Opts);
    SolveResult R = solveConstants(P.Symbols, S.callGraph(), Jfs);
    benchmark::DoNotOptimize(R);
  });
  State.SetComplexityN(State.range(0));
}

} // namespace

BENCHMARK(BM_Construction_spec77)->DenseRange(0, 3, 1);
BENCHMARK(BM_Propagation_spec77)->DenseRange(0, 3, 1);
BENCHMARK(BM_EndToEnd_spec77)->DenseRange(0, 3, 1);
BENCHMARK(BM_Scaling_synthetic)
    ->RangeMultiplier(2)
    ->Range(16, 256)
    ->Complexity(benchmark::oN);

BENCHMARK_MAIN();
