//===- bench/ablation_solver.cpp - Solver strategy ablation ---------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper used "a simple worklist iterative scheme" and notes that
/// Callahan et al. give an asymptotically optimal algorithm while "the
/// implementation used in our experiment was less efficient", and that
/// "even with this less efficient solver, the problems converged
/// quickly". This ablation compares the worklist scheme against a naive
/// round-robin sweep, in time and in jump-function evaluations, and
/// checks both produce identical CONSTANTS sets.
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

/// A checked program and its default jump functions, built on one
/// session (which refers into Checked, so a Prepared is built in place).
struct Prepared {
  CheckedProgram Checked;
  const SymbolTable &Symbols = Checked.Symbols;
  std::unique_ptr<AnalysisSession> Session;
  const CallGraph *CG = nullptr;
  ProgramJumpFunctions Jfs;

  explicit Prepared(const std::string &Source)
      : Checked(checkProgram(Source)) {
    if (!Checked.ok()) {
      std::cerr << Checked.Error;
      exit(1);
    }
    Session =
        std::make_unique<AnalysisSession>(*Checked.Ctx, Checked.Symbols);
    CG = &Session->callGraph();
    Jfs = buildJumpFunctions(*Session, JumpFunctionOptions());
  }
  Prepared(Prepared &&) = delete;
};

void BM_Solver_synthetic(benchmark::State &State) {
  SyntheticSpec Spec;
  Spec.Procs = static_cast<int>(State.range(0));
  Prepared P(generateSynthetic(Spec));
  SolverStrategy Strategy =
      State.range(1) == 0   ? SolverStrategy::Worklist
      : State.range(1) == 1 ? SolverStrategy::RoundRobin
                            : SolverStrategy::BindingGraph;
  unsigned Visits = 0, Evals = 0;
  size_t Constants = 0;
  for (auto _ : State) {
    SolveResult R = solveConstants(P.Symbols, *P.CG, P.Jfs, Strategy);
    Visits = R.ProcVisits;
    Evals = R.JfEvaluations;
    Constants = R.numConstantCells();
    benchmark::DoNotOptimize(R);
  }
  State.SetLabel(Strategy == SolverStrategy::Worklist    ? "worklist"
                 : Strategy == SolverStrategy::RoundRobin ? "round-robin"
                                                          : "binding-graph");
  State.counters["proc_visits"] = double(Visits);
  State.counters["jf_evaluations"] = double(Evals);
  State.counters["constant_cells"] = double(Constants);
}

/// Both strategies must agree on every suite program (checked once at
/// startup, outside the timed region).
bool strategiesAgree() {
  for (const WorkloadProgram &W : benchmarkSuite()) {
    Prepared P(W.Source);
    SolveResult A =
        solveConstants(P.Symbols, *P.CG, P.Jfs, SolverStrategy::Worklist);
    SolveResult B = solveConstants(P.Symbols, *P.CG, P.Jfs,
                                   SolverStrategy::RoundRobin);
    SolveResult C = solveConstants(P.Symbols, *P.CG, P.Jfs,
                                   SolverStrategy::BindingGraph);
    for (ProcId Proc = 0; Proc != P.CG->numProcs(); ++Proc)
      if (A.constants(Proc) != B.constants(Proc) ||
          A.constants(Proc) != C.constants(Proc)) {
        std::cerr << "strategies disagree on " << W.Name << " proc "
                  << Proc << "\n";
        return false;
      }
  }
  return true;
}

} // namespace

BENCHMARK(BM_Solver_synthetic)
    ->ArgsProduct({{32, 128, 512}, {0, 1, 2}});

int main(int argc, char **argv) {
  if (!strategiesAgree())
    return 1;
  std::cout << "worklist, round-robin, and binding-graph agree on all "
               "suite programs\n";
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
