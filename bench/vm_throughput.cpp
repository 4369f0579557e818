//===- bench/vm_throughput.cpp - Bytecode VM vs AST interpreter -----------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Execution-throughput comparison between the bytecode VM and the AST
/// interpreter — the engines behind every oracle validation and fuzz
/// campaign. Three workloads run on both engines, all under the
/// oracle's step budget (MaxSteps = 30000):
///
///   fuzz   — seeded generator programs, the fuzzer's actual diet:
///            many microsecond-scale runs where per-run setup
///            dominates. This is the hot path the VM exists for, and
///            the workload the gate is measured on.
///   kernel — a hand-written compute loop (nested DO, array traffic,
///            by-reference calls) that isolates dispatch cost; context
///            only (long tight loops amortize per-run cost, so the
///            engines differ by dispatch speed alone here).
///   suite  — the 12 paper-reproduction suite programs; context only.
///
/// Every measured run is also checked: both engines must produce the
/// identical observable record (status, PRINT trace, steps, reads,
/// final globals) — a benchmark of a wrong VM is worthless. Because
/// the engines execute the exact same runs, a workload's speedup is
/// the same whether read as runs/s, steps/s, or wall time.
///
/// Gate: VM throughput on the fuzz workload >= 10x the interpreter's
/// (override with --min-speedup=N). Reports per-workload numbers and
/// writes machine-readable JSON (--json=PATH, default BENCH_vm.json).
/// --smoke shrinks repetitions for the check-bench CI guard.
///
//===----------------------------------------------------------------------===//

#include "exec/ExecEngine.h"
#include "exec/Vm.h"
#include "lang/Sema.h"
#include "workloads/RandomProgram.h"
#include "workloads/Suite.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

using namespace ipcp;

namespace {

using Clock = std::chrono::steady_clock;

// The dispatch-cost kernel: ~31k steps per run, dominated by the inner
// DO body (array read/write, wrapping arithmetic, a by-reference
// accumulator threaded through every call).
const char *kKernelSource = R"(proc main()
  integer i, acc
  do i = 1, 200
    call work(i, acc)
  end do
  print acc
end
proc work(n, acc)
  integer j, t
  array a(8)
  do j = 1, 50
    t = (n * j + acc) % 97
    a(j % 8 + 1) = t
    acc = acc + a(j % 8 + 1) + (t * 3 - n) / 5
  end do
end
)";

struct BenchProgram {
  std::string Name;
  std::unique_ptr<AstContext> Ctx;
  SymbolTable Symbols;
};

struct EngineStats {
  uint64_t Steps = 0;
  uint64_t Runs = 0;
  double WallMs = 0;

  double stepsPerSec() const {
    return WallMs > 0 ? double(Steps) * 1000.0 / WallMs : 0;
  }
  double runsPerSec() const {
    return WallMs > 0 ? double(Runs) * 1000.0 / WallMs : 0;
  }
};

struct WorkloadRow {
  std::string Name;
  EngineStats Vm, Ast;

  double speedup() const {
    return Ast.stepsPerSec() > 0 ? Vm.stepsPerSec() / Ast.stepsPerSec() : 0;
  }
};

bool Mismatched = false;

void checkIdentical(const RunResult &A, const RunResult &V,
                    const std::string &What) {
  if (A.Status != V.Status || A.Prints != V.Prints || A.Steps != V.Steps ||
      A.ReadsConsumed != V.ReadsConsumed || !(A.TrapLoc == V.TrapLoc) ||
      A.FinalGlobals != V.FinalGlobals ||
      A.FinalGlobalArrays != V.FinalGlobalArrays) {
    std::cerr << "FAIL: engines disagree on " << What << "\n  ast: "
              << A.str() << "\n  vm:  " << V.str() << '\n';
    Mismatched = true;
  }
}

std::vector<BenchProgram> loadPrograms(unsigned RandomSeeds) {
  std::vector<BenchProgram> Programs;
  auto add = [&](const std::string &Name, const std::string &Source) {
    CheckedProgram C = checkProgram(Source);
    if (!C.ok()) {
      std::cerr << "FAIL: " << Name << " does not parse: " << C.Error;
      std::exit(1);
    }
    Programs.push_back({Name, std::move(C.Ctx), std::move(C.Symbols)});
  };
  add("kernel", kKernelSource);
  for (const WorkloadProgram &W : benchmarkSuite())
    add("suite/" + W.Name, W.Source);
  for (uint64_t Seed = 1; Seed <= RandomSeeds; ++Seed) {
    RandomSpec Spec;
    Spec.Seed = Seed * 101;
    add("fuzz/" + std::to_string(Seed), generateRandomProgram(Spec));
  }
  return Programs;
}

/// One workload bucket ("kernel", "suite", "random") measured on one
/// engine: \p Reps repetitions of every (program, read-seed) pair.
EngineStats measure(const std::vector<BenchProgram *> &Programs,
                    ExecEngine Engine, unsigned Reps,
                    std::vector<RunResult> *FirstRunRecord) {
  EngineStats S;
  std::vector<std::unique_ptr<ProgramRunner>> Runners;
  for (const BenchProgram *P : Programs)
    Runners.push_back(std::make_unique<ProgramRunner>(P->Ctx->program(),
                                                      P->Symbols, Engine));
  const uint64_t ReadSeeds[] = {1, 2};
  Clock::time_point T0 = Clock::now();
  for (unsigned Rep = 0; Rep != Reps; ++Rep) {
    for (size_t I = 0; I != Runners.size(); ++I) {
      for (uint64_t Seed : ReadSeeds) {
        RunOptions RO;
        RO.ReadSeed = Seed;
        RO.Limits.MaxSteps = 30000; // The oracle's validation budget.
        RunResult R = Runners[I]->run(RO);
        S.Steps += R.Steps;
        ++S.Runs;
        if (Rep == 0 && FirstRunRecord)
          FirstRunRecord->push_back(std::move(R));
      }
    }
  }
  S.WallMs = std::chrono::duration<double, std::milli>(Clock::now() - T0)
                 .count();
  return S;
}

WorkloadRow benchWorkload(const std::string &Name,
                          const std::vector<BenchProgram *> &Programs,
                          unsigned Reps) {
  WorkloadRow Row;
  Row.Name = Name;
  std::vector<RunResult> VmFirst, AstFirst;
  // Interpreter first, VM second; each engine's runners are built
  // outside its timed region (compilation is a once-per-program cost
  // the oracle also pays once, not per seed).
  Row.Ast = measure(Programs, ExecEngine::Ast, Reps, &AstFirst);
  Row.Vm = measure(Programs, ExecEngine::Vm, Reps, &VmFirst);
  for (size_t I = 0; I != VmFirst.size() && I != AstFirst.size(); ++I)
    checkIdentical(AstFirst[I], VmFirst[I],
                   Name + " run #" + std::to_string(I));
  return Row;
}

void printRow(const WorkloadRow &R) {
  std::printf("  %-8s %10.2f M steps/s (vm)  %8.2f M steps/s (ast)  "
              "%8.1f K runs/s (vm)  %8.1f K runs/s (ast)  %6.1fx\n",
              R.Name.c_str(), R.Vm.stepsPerSec() / 1e6,
              R.Ast.stepsPerSec() / 1e6, R.Vm.runsPerSec() / 1e3,
              R.Ast.runsPerSec() / 1e3, R.speedup());
}

void emitRow(std::ofstream &Out, const WorkloadRow &R, bool Last) {
  char Buf[320];
  std::snprintf(Buf, sizeof(Buf),
                "    {\"name\": \"%s\", \"vm_steps_per_sec\": %.0f, "
                "\"ast_steps_per_sec\": %.0f, \"vm_runs_per_sec\": %.0f, "
                "\"ast_runs_per_sec\": %.0f, \"speedup\": %.3f, "
                "\"steps\": %llu, \"runs\": %llu}%s\n",
                R.Name.c_str(), R.Vm.stepsPerSec(), R.Ast.stepsPerSec(),
                R.Vm.runsPerSec(), R.Ast.runsPerSec(), R.speedup(),
                static_cast<unsigned long long>(R.Vm.Steps),
                static_cast<unsigned long long>(R.Vm.Runs),
                Last ? "" : ",");
  Out << Buf;
}

} // namespace

int main(int argc, char **argv) {
  bool Smoke = false;
  std::string JsonPath = "BENCH_vm.json";
  double MinSpeedup = 10.0;
  unsigned Reps = 40;
  unsigned RandomSeeds = 20;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--smoke")
      Smoke = true;
    else if (Arg.rfind("--json=", 0) == 0)
      JsonPath = Arg.substr(7);
    else if (Arg.rfind("--min-speedup=", 0) == 0)
      MinSpeedup = std::strtod(Arg.c_str() + 14, nullptr);
    else if (Arg.rfind("--reps=", 0) == 0)
      Reps = static_cast<unsigned>(std::strtoul(Arg.c_str() + 7, nullptr,
                                                10));
    else {
      std::cerr << "usage: vm_throughput [--smoke] [--json=PATH] "
                   "[--min-speedup=N] [--reps=N]\n";
      return 1;
    }
  }
  if (Smoke) {
    Reps = 4;
    RandomSeeds = 6;
  }

  std::vector<BenchProgram> All = loadPrograms(RandomSeeds);
  std::vector<BenchProgram *> Kernel, Suite, Fuzz;
  for (BenchProgram &P : All) {
    if (P.Name == "kernel")
      Kernel.push_back(&P);
    else if (P.Name.rfind("suite/", 0) == 0)
      Suite.push_back(&P);
    else
      Fuzz.push_back(&P);
  }

  std::cout << "VM vs AST interpreter throughput (" << Reps
            << " reps x 2 read seeds, max_steps 30000, dispatch: "
            << vmDispatchMode() << (Smoke ? ", smoke" : "") << ")\n\n";

  // The fuzz row is the gated hot path: short runs where per-run
  // setup dominates, repeated enough times for a stable wall clock.
  std::vector<WorkloadRow> Rows;
  Rows.push_back(benchWorkload("fuzz", Fuzz, Reps * 25));
  Rows.push_back(benchWorkload("kernel", Kernel, Reps * 4));
  Rows.push_back(benchWorkload("suite", Suite, Reps));
  for (const WorkloadRow &R : Rows)
    printRow(R);
  const WorkloadRow &Gated = Rows.front();

  double Speedup = Gated.speedup();
  std::printf("\nfuzz workload (gated): %.1f K runs/s (vm) vs "
              "%.1f K runs/s (ast) = %.1fx (gate: >= %.1fx)\n",
              Gated.Vm.runsPerSec() / 1e3, Gated.Ast.runsPerSec() / 1e3,
              Speedup, MinSpeedup);

  std::ofstream Out(JsonPath);
  if (Out) {
    char Buf[256];
    Out << "{\n  \"workloads\": [\n";
    for (size_t I = 0; I != Rows.size(); ++I)
      emitRow(Out, Rows[I], I + 1 == Rows.size());
    std::snprintf(Buf, sizeof(Buf),
                  "  ],\n  \"gated_workload\": \"fuzz\",\n"
                  "  \"vm_runs_per_sec\": %.0f,\n"
                  "  \"ast_runs_per_sec\": %.0f,\n"
                  "  \"speedup\": %.3f,\n  \"gate\": %.1f,\n",
                  Gated.Vm.runsPerSec(), Gated.Ast.runsPerSec(), Speedup,
                  MinSpeedup);
    Out << Buf << "  \"dispatch\": \"" << vmDispatchMode()
        << "\",\n  \"max_steps\": 30000,\n  \"reps\": " << Reps
        << ",\n  \"smoke\": " << (Smoke ? "true" : "false") << "\n}\n";
    std::cout << "wrote " << JsonPath << '\n';
  }

  bool Ok = true;
  if (Mismatched) {
    std::cerr << "FAIL: VM and interpreter disagreed on a measured run\n";
    Ok = false;
  }
  if (Speedup < MinSpeedup) {
    std::cerr << "FAIL: fuzz-workload speedup " << Speedup
              << "x is below the gate (" << MinSpeedup << "x)\n";
    Ok = false;
  }
  return Ok ? 0 : 1;
}
