//===- perfbench/src/FuzzWorkload.cpp - Mutate + evaluate throughput ------===//
//
// Single thread. Each operation applies mutateProgram to a parent drawn
// from the seed (parents come from generateRandomProgram, shaped like
// ipcp-fuzz's seed programs) and runs evaluateProgram with default
// options: about 13 cold pipelines and 10 oracle validations. No coverage
// feedback (it would steer the inputs by the program's own counters) and
// no reduction (a failure would cost ~150 re-evaluations). Every failure
// is counted and printed with its reproducer; none is filtered.
//
//===----------------------------------------------------------------------===//

#include "Replica.h"
#include "Streams.h"
#include "Workloads.h"

#include "exec/ExecEngine.h"
#include "exec/Oracle.h"
#include "fuzz/Fuzzer.h"
#include "fuzz/Mutator.h"
#include "support/FuzzFeedback.h"

#include <iostream>
#include <map>
#include <sstream>

using namespace ipcp;
using namespace perfbench;

namespace {

constexpr size_t ParentPool = 1024;

struct Found {
  uint64_t Op = 0;
  FuzzDraw Draw;
  FuzzFailure Failure;
};

/// Prints every failure with its reproducer, and re-evaluates each: a
/// reproducer that does not fail again the same way makes the run
/// incorrect.
void reportFailures(Outcome &O, const std::vector<Found> &Failures,
                    const FuzzOptions &FO) {
  std::map<std::string, unsigned> ByKind;
  for (const Found &F : Failures) {
    std::string Key = F.Failure.Kind + " " + F.Failure.Config;
    ++ByKind[Key];
    std::cout << "FUZZ-FAILURE op=" << F.Op << " parent=" << F.Draw.Parent
              << " mutation_seed=" << F.Draw.MutationSeed << " " << Key
              << ": " << F.Failure.Detail << "\n";
    std::istringstream Src(F.Failure.Source);
    std::string Line;
    while (std::getline(Src, Line))
      std::cout << "| " << Line << "\n";
    FuzzFeedback FB;
    std::optional<FuzzFailure> Again =
        evaluateProgram(F.Failure.Source, FB, FO);
    if (!Again || Again->Kind != F.Failure.Kind ||
        Again->Config != F.Failure.Config)
      O.mismatch("fuzz failure at op " + std::to_string(F.Op) +
                 " does not reproduce");
  }
  for (const auto &[Key, N] : ByKind)
    std::cout << "fuzz failures " << Key << ": " << N << "\n";
}

/// One operation of the traced run: the untraced calls under spans, then
/// every fuzz configuration's pipeline rebuilt from public calls and
/// checked against the untraced pipeline, then the execution layer.
struct TracedFuzz {
  Trace T;
  uint64_t Tokens = 0, Instrs = 0, Programs = 0, JfEvals = 0, Analyses = 0,
           Steps = 0;
  SessionStats Stats;

  void replicate(Outcome &O, const std::string &Source, const FuzzOptions &FO,
                 uint64_t Op) {
    for (const FuzzConfig &Cfg : fuzzConfigs()) {
      // runPipeline parses afresh for every configuration; so does this.
      Frontend F = replicaFrontend(Source, &T);
      if (!F.Error.empty()) {
        O.mismatch("fuzz replica frontend at op " + std::to_string(Op));
        return;
      }
      Tokens += F.Tokens;
      std::unique_ptr<AnalysisSession> Session;
      {
        Span S(&T, "ipcp.session");
        Session = std::make_unique<AnalysisSession>(*F.Ctx, F.Symbols);
      }
      size_t N = 0;
      Answer A = replicaPipeline(*Session, Cfg.Pipeline, &T, &N);
      Instrs += N;
      ++Programs;
      JfEvals += A.JfEvaluations;
      ++Analyses;
      {
        Span S(&T, "ipcp.teardown");
        Session.reset();
        F.Ctx.reset();
      }
      Answer Untraced;
      {
        Span S(&T, "ref.untraced");
        Frontend RF = replicaFrontend(Source, nullptr);
        AnalysisSession RS(*RF.Ctx, RF.Symbols);
        Untraced = answerOf(runPipelineOnSession(RS, Cfg.Pipeline));
        accumulate(Stats, RS.stats());
      }
      std::string Why = disagreement(A, Untraced);
      if (!Why.empty())
        O.mismatch("fuzz replica op " + std::to_string(Op) + " " + Cfg.Name +
                   ": " + Why);
    }

    Frontend F = replicaFrontend(Source, nullptr);
    std::optional<ProgramRunner> Runner;
    {
      Span S(&T, "exec.compile");
      Runner.emplace(F.Ctx->program(), F.Symbols, FO.Engine);
    }
    {
      Span S(&T, "exec.run");
      RunOptions RO;
      RO.Limits.MaxSteps = FO.MaxSteps;
      Steps += Runner->run(RO).Steps;
    }
    // The oracle calls evaluateProgram makes, one per configuration.
    const std::vector<FuzzConfig> &Configs = fuzzConfigs();
    for (size_t I = 0; I != Configs.size(); ++I) {
      OracleOptions OO;
      OO.Pipeline = Configs[I].Pipeline;
      OO.Limits.MaxSteps = FO.MaxSteps;
      OO.Engine = FO.Engine;
      OO.CheckInliner = OO.CheckCloning = I == 0 && FO.CheckTransforms;
      Span S(&T, "exec.oracle");
      validateTranslation(Source, OO);
    }
  }
};

} // namespace

Outcome perfbench::runFuzz(const Options &Opts) {
  Outcome O;
  // Set-up: generating the parent pool. It is timed here and again every
  // tenth of the run, between operations and outside their time; setup_s
  // is the median.
  std::vector<double> SetupMs;
  std::vector<std::string> Parents;
  auto SetUp = [&] {
    Clock::time_point T0 = Clock::now();
    Parents = fuzzParents(Opts.Seed, ParentPool);
    SetupMs.push_back(msSince(T0));
  };
  SetUp();

  FuzzOptions FO; // evaluateProgram's defaults
  std::vector<Found> Failures;
  std::vector<double> OpMs, Rss;
  uint64_t MutateCalls = 0, Valid = 0;
  double BusyMs = 0;
  TracedFuzz Traced;
  Trace *T = Opts.Trace ? &Traced.T : nullptr;
  Clock::time_point Start = Clock::now(), LastRss = Start, LastSetUp = Start;
  for (uint64_t Op = 0; OpMs.empty() || msSince(Start) < Opts.Seconds * 1000.0;
       ++Op) {
    if (!T && msSince(LastSetUp) >= Opts.Seconds * 100.0) {
      SetUp();
      LastSetUp = Clock::now();
    }
    FuzzDraw D = fuzzDraw(Opts.Seed, Op, Parents.size());
    MutationOptions MO;
    MO.Seed = D.MutationSeed;
    Clock::time_point T0 = Clock::now();
    MutationResult MR;
    {
      Span S(T, "fuzz.mutate");
      MR = mutateProgram(Parents[D.Parent], MO);
    }
    ++MutateCalls;
    if (!MR.Ok) {
      BusyMs += msSince(T0);
      continue;
    }
    ++Valid;
    FuzzFeedback FB;
    std::optional<FuzzFailure> Fail;
    {
      Span S(T, "fuzz.evaluate");
      Fail = evaluateProgram(MR.Source, FB, FO);
    }
    OpMs.push_back(msSince(T0));
    BusyMs += OpMs.back();
    if (Rss.empty() || msSince(LastRss) >= 100) {
      Rss.push_back(liveRssMb());
      LastRss = Clock::now();
    }
    ++O.Attempted;
    if (Fail) {
      ++O.Failed;
      Failures.push_back({Op, D, std::move(*Fail)});
    }
    if (T)
      Traced.replicate(O, MR.Source, FO, Op);
  }
  double Wall = msSince(Start);
  uint64_t Failed = O.Failed;
  reportFailures(O, Failures, FO);

  double Evals = double(OpMs.size());
  if (Opts.Trace) {
    const Trace &Tr = Traced.T;
    uint64_t N = OpMs.size();
    layerMetrics(O, Tr, N, Traced.Tokens);
    O.metric("ir.instrs", double(Traced.Instrs) / double(Traced.Programs),
             Traced.Programs, "lowered instructions per analyzed program");
    O.metric("ipcp.jf_evaluations",
             double(Traced.JfEvals) / double(Traced.Analyses), Traced.Analyses,
             "solver jump-function evaluations per analysis");
    reuseMetrics(O, Traced.Stats);
    perOp(O, Tr, "exec.oracle_ms", N, {"exec.oracle"});
    perOp(O, Tr, "exec.compile_ms", N, {"exec.compile"});
    perOp(O, Tr, "exec.run_ms", N, {"exec.run"});
    double RunS = Tr.ms("exec.run") / 1000.0;
    O.metric("exec.steps_per_s", RunS > 0 ? double(Traced.Steps) / RunS : 0,
             Traced.Steps, "base: VM steps");
    perOp(O, Tr, "fuzz.mutate_ms", N, {"fuzz.mutate"});
    perOp(O, Tr, "fuzz.evaluate_ms", N, {"fuzz.evaluate"});
    O.metric("fuzz.valid_mutant_ratio", double(Valid) / double(MutateCalls),
             MutateCalls, "base: mutateProgram calls");
    traceMetrics(O, Tr, Wall);
    return O;
  }

  double EvalsPerS = Evals / (BusyMs / 1000.0);
  endToEndMetrics(O, SetupMs, Rss, EvalsPerS, OpMs);
  O.named("setup_s", median(SetupMs) / 1000.0, "s", SetupMs.size(),
          "median generation of " + std::to_string(ParentPool) + " parents");
  O.named("peak_rss_mb", peakRssMb(), "MB", 1,
          "VmHWM of the workload process");
  O.named("fail_ratio", O.Attempted ? double(Failed) / O.Attempted : 0,
          "ratio", O.Attempted, "base: evaluations");
  O.named("fuzz_evals_per_s", EvalsPerS, "1/s", OpMs.size(), "1 thread");
  O.named("fuzz_valid_mutant_ratio", double(Valid) / double(MutateCalls),
          "ratio", MutateCalls, "base: mutateProgram calls");
  return O;
}
