//===- bench/oracle_throughput.cpp - Interpreter + oracle throughput ------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// How fast can we validate? The translation-validation oracle runs
/// every generated program several times per configuration, so its
/// throughput bounds how many seeds the fuzz sweep can afford. Measures:
///   * raw interpreter speed (steps/second) on a compute-heavy loop,
///   * interpreter speed on the benchmark suite programs,
///   * full validateTranslation() cost per suite program and per random
///     program, with and without complete propagation.
///
//===----------------------------------------------------------------------===//

#include "exec/Interpreter.h"
#include "exec/Oracle.h"
#include "lang/Sema.h"
#include "workloads/RandomProgram.h"
#include "workloads/Suite.h"

#include <benchmark/benchmark.h>

#include <iostream>
#include <memory>

using namespace ipcp;

namespace {

/// A checked program bundle the benchmarks can run repeatedly.
struct Runnable {
  CheckedProgram Checked;
  std::unique_ptr<Interpreter> Interp;
};

Runnable prepare(const std::string &Source) {
  Runnable R;
  R.Checked = checkProgram(Source);
  if (!R.Checked.ok()) {
    std::cerr << R.Checked.Error;
    exit(1);
  }
  R.Interp = std::make_unique<Interpreter>(R.Checked.Ctx->program(),
                                           R.Checked.Symbols);
  return R;
}

/// A tight arithmetic loop: ~5 steps per iteration, no traps.
const char *ComputeKernel = R"(proc main()
  integer i, acc
  do i = 1, 20000
    acc = acc + i * 3 - (i / 2)
    if (acc > 1000000) then
      acc = acc - 1000000
    end if
  end do
  print acc
end
)";

void BM_InterpreterSteps(benchmark::State &State) {
  Runnable R = prepare(ComputeKernel);
  uint64_t Steps = 0;
  for (auto _ : State) {
    RunResult Run = R.Interp->run(RunOptions());
    if (Run.Status != RunStatus::Ok)
      State.SkipWithError("kernel trapped");
    Steps += Run.Steps;
    benchmark::DoNotOptimize(Run.Prints);
  }
  State.counters["steps/s"] = benchmark::Counter(
      static_cast<double>(Steps), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InterpreterSteps);

void BM_InterpreterSuite(benchmark::State &State) {
  const WorkloadProgram &W = benchmarkSuite()[State.range(0)];
  State.SetLabel(W.Name);
  Runnable R = prepare(W.Source);
  uint64_t Steps = 0;
  for (auto _ : State) {
    RunResult Run = R.Interp->run(RunOptions());
    Steps += Run.Steps;
    benchmark::DoNotOptimize(Run.Status);
  }
  State.counters["steps/s"] = benchmark::Counter(
      static_cast<double>(Steps), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InterpreterSuite)->DenseRange(0, 11);

void BM_ValidateSuite(benchmark::State &State) {
  const WorkloadProgram &W = benchmarkSuite()[State.range(0)];
  State.SetLabel(W.Name);
  for (auto _ : State) {
    OracleResult R = validateTranslation(W.Source, OracleOptions());
    if (!R.Ok)
      State.SkipWithError("validation failed");
    benchmark::DoNotOptimize(R.RunsExecuted);
  }
}
BENCHMARK(BM_ValidateSuite)->DenseRange(0, 11);

void BM_ValidateRandom(benchmark::State &State) {
  RandomSpec Spec;
  Spec.Seed = 42;
  std::string Source = generateRandomProgram(Spec);
  OracleOptions Opts;
  Opts.Pipeline.CompletePropagation = State.range(0) != 0;
  Opts.Limits.MaxSteps = 50000;
  uint64_t Runs = 0;
  for (auto _ : State) {
    OracleResult R = validateTranslation(Source, Opts);
    if (!R.Ok)
      State.SkipWithError("validation failed");
    Runs += R.RunsExecuted;
  }
  State.SetLabel(State.range(0) ? "complete" : "plain");
  State.counters["runs/s"] = benchmark::Counter(
      static_cast<double>(Runs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ValidateRandom)->Arg(0)->Arg(1);

void BM_ValidateWithTransforms(benchmark::State &State) {
  // The full check the fuzz sweep pays once per seed: inliner and
  // cloning included.
  RandomSpec Spec;
  Spec.Seed = 42;
  std::string Source = generateRandomProgram(Spec);
  OracleOptions Opts;
  Opts.CheckInliner = true;
  Opts.CheckCloning = true;
  Opts.Limits.MaxSteps = 50000;
  for (auto _ : State) {
    OracleResult R = validateTranslation(Source, Opts);
    if (!R.Ok)
      State.SkipWithError("validation failed");
    benchmark::DoNotOptimize(R.RunsExecuted);
  }
}
BENCHMARK(BM_ValidateWithTransforms);

} // namespace

BENCHMARK_MAIN();
