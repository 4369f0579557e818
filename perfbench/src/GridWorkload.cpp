//===- perfbench/src/GridWorkload.cpp - The Table 2/3 grid ----------------===//
//
// Each pass is runSuite(extendedSuite(), allConfigs(), min(4, nproc) jobs,
// Shared): 15 programs x 13 configs on fresh sessions. The seed draws the
// program order of every pass, which changes how cells land on workers but
// not what they compute. Every cell must be Ok and equal its golden count.
//
//===----------------------------------------------------------------------===//

#include "Replica.h"
#include "Streams.h"
#include "Workloads.h"

#include "fuzz/FuzzRng.h"
#include "ipcp/AnalysisSession.h"
#include "lang/AstClone.h"
#include "workloads/Programs.h"
#include "workloads/SuiteRunner.h"

#include <utility>

using namespace ipcp;
using namespace perfbench;

namespace {

/// The suite as extendedSuite() builds it, generated afresh: the grid's
/// set-up cost. Fails loudly if extendedSuite() has grown other programs.
std::vector<WorkloadProgram> generateSuite() {
  std::vector<WorkloadProgram> S = {
      workloads::makeAdm(),       workloads::makeDoduc(),
      workloads::makeFpppp(),     workloads::makeLinpackd(),
      workloads::makeMatrix300(), workloads::makeMdg(),
      workloads::makeOcean(),     workloads::makeQcd(),
      workloads::makeSimple(),    workloads::makeSnasa7(),
      workloads::makeSpec77(),    workloads::makeTrfd(),
      workloads::makeCopyChains(), workloads::makeDeepDiameter(),
      workloads::makeWideFanout()};
  return S;
}

bool sameSuite(const std::vector<WorkloadProgram> &A,
               const std::vector<WorkloadProgram> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I != A.size(); ++I)
    if (A[I].Name != B[I].Name || A[I].Source != B[I].Source)
      return false;
  return true;
}

/// Checks every cell of one pass against the goldens.
void checkPass(Outcome &O, const SuiteRunResult &R,
               const GoldenTables &Golden) {
  for (const SuiteCell &Cell : R.Cells) {
    ++O.Attempted;
    long Want = Golden.expected(Cell.Program, Cell.Config);
    if (!Cell.Ok)
      O.mismatch("grid cell " + Cell.Program + "/" + Cell.Config +
                 " failed");
    else if (Want < 0)
      O.mismatch("grid cell " + Cell.Program + "/" + Cell.Config +
                 " has no golden");
    else if (long(Cell.SubstitutedConstants) != Want)
      O.mismatch("grid cell " + Cell.Program + "/" + Cell.Config + ": " +
                 std::to_string(Cell.SubstitutedConstants) + " != golden " +
                 std::to_string(Want));
  }
}

double jfMs(const SuiteRunResult &R) {
  double Ms = 0;
  for (const SuiteCell &Cell : R.Cells)
    Ms += Cell.Timings.JumpFunctionsMs;
  return Ms;
}

/// The untraced reference of one program: a fresh shared session and
/// runPipelineOnSession per config, as runSuite runs its cells.
std::vector<Answer> untracedProgram(const std::string &Source,
                                    const std::vector<SuiteConfig> &Configs) {
  std::vector<Answer> Out;
  Frontend F = replicaFrontend(Source, nullptr);
  if (!F.Error.empty()) {
    Answer A;
    A.Error = F.Error;
    Out.assign(Configs.size(), A);
    return Out;
  }
  AnalysisSession Session(*F.Ctx, F.Symbols);
  for (const SuiteConfig &C : Configs) {
    if (C.Opts.CompletePropagation) {
      auto Clone = cloneProgramResolved(*F.Ctx);
      AnalysisSession Private(*Clone, F.Symbols);
      Out.push_back(answerOf(runPipelineOnSession(Private, C.Opts)));
    } else {
      Out.push_back(answerOf(runPipelineOnSession(Session, C.Opts)));
    }
  }
  return Out;
}

/// Per-layer run: one untraced pass set for the workloads layer, then
/// programs replicated from public calls until the time is up.
void tracedGrid(const Options &Opts, Outcome &O,
                const std::vector<WorkloadProgram> &Programs,
                const std::vector<SuiteConfig> &Configs,
                const GoldenTables &Golden) {
  unsigned Jobs = loadJobs();
  // Workloads layer, measured untraced: parallel efficiency at the
  // workload's jobs, and the per-cell jump-function slowdown against a
  // 1-job pass on the same grid.
  double CellMs = 0, WallJobs = 0, JfJobs = 0, JfSerial = 0;
  SessionStats Cache;
  constexpr unsigned ParallelPasses = 3, SerialPasses = 2;
  for (unsigned I = 0; I != ParallelPasses; ++I) {
    SuiteRunResult R =
        runSuite(Programs, Configs, Jobs, 1, SuiteSharing::Shared);
    checkPass(O, R, Golden);
    CellMs += R.CellMs;
    WallJobs += R.WallMs;
    JfJobs += jfMs(R);
    accumulate(Cache, R.Cache);
  }
  for (unsigned I = 0; I != SerialPasses; ++I) {
    SuiteRunResult R = runSuite(Programs, Configs, 1, 1, SuiteSharing::Shared);
    checkPass(O, R, Golden);
    JfSerial += jfMs(R);
  }
  O.metric("workloads.parallel_efficiency",
           CellMs / (WallJobs * double(Jobs)),
           ParallelPasses * Programs.size() * Configs.size(),
           "sum of cell ms / (wall ms x " + std::to_string(Jobs) +
               " jobs); base: cells");
  O.metric("workloads.jf_parallel_slowdown",
           (JfJobs / ParallelPasses) / (JfSerial / SerialPasses),
           SerialPasses * Programs.size() * Configs.size(),
           "cell JF ms at " + std::to_string(Jobs) +
               " jobs / at 1 job; base: 1-job cells");
  reuseMetrics(O, Cache);

  // Replica phase: single thread, every layer call under a span.
  Trace T;
  uint64_t Cells = 0, Tokens = 0, Instrs = 0, ProgramsRun = 0, JfEvals = 0;
  Clock::time_point Start = Clock::now();
  double Budget = Opts.Seconds * 1000.0 / 2;
  for (size_t I = 0; Cells == 0 || msSince(Start) < Budget; ++I) {
    const WorkloadProgram &P = Programs[I % Programs.size()];
    Frontend F = replicaFrontend(P.Source, &T);
    if (!F.Error.empty()) {
      O.mismatch("grid replica frontend " + P.Name + ": " + F.Error);
      return;
    }
    Tokens += F.Tokens;
    std::unique_ptr<AnalysisSession> Session;
    {
      Span S(&T, "ipcp.session");
      Session = std::make_unique<AnalysisSession>(*F.Ctx, F.Symbols);
    }
    std::vector<Answer> Replica;
    size_t ProgInstrs = 0;
    for (const SuiteConfig &C : Configs) {
      if (C.Opts.CompletePropagation) {
        std::unique_ptr<AstContext> Clone;
        std::unique_ptr<AnalysisSession> Private;
        {
          Span S(&T, "lang.clone");
          Clone = cloneProgramResolved(*F.Ctx);
          Private = std::make_unique<AnalysisSession>(*Clone, F.Symbols);
        }
        Replica.push_back(replicaPipeline(*Private, C.Opts, &T));
        Span S(&T, "ipcp.teardown");
        Private.reset();
        Clone.reset();
      } else {
        Replica.push_back(replicaPipeline(*Session, C.Opts, &T,
                                          ProgInstrs ? nullptr : &ProgInstrs));
      }
    }
    {
      Span S(&T, "ipcp.teardown");
      Session.reset();
      F.Ctx.reset();
    }
    std::vector<Answer> Untraced;
    {
      Span S(&T, "ref.untraced");
      Untraced = untracedProgram(P.Source, Configs);
    }
    for (size_t C = 0; C != Configs.size(); ++C) {
      std::string Why = disagreement(Replica[C], Untraced[C]);
      if (!Why.empty())
        O.mismatch("grid replica " + P.Name + "/" + Configs[C].Name + ": " +
                   Why);
      long Want = Golden.expected(P.Name, Configs[C].Name);
      if (long(Replica[C].Substituted) != Want)
        O.mismatch("grid replica " + P.Name + "/" + Configs[C].Name +
                   " != golden");
      JfEvals += Replica[C].JfEvaluations;
    }
    Cells += Configs.size();
    Instrs += ProgInstrs;
    ++ProgramsRun;
  }
  double Wall = msSince(Start);
  O.Attempted += Cells;
  layerMetrics(O, T, Cells, Tokens);
  O.metric("ir.instrs", double(Instrs) / double(ProgramsRun), ProgramsRun,
           "lowered instructions per program");
  O.metric("ipcp.jf_evaluations", double(JfEvals) / double(Cells), Cells,
           "solver jump-function evaluations per cell");
  traceMetrics(O, T, Wall);
}

} // namespace

Outcome perfbench::runGrid(const Options &Opts) {
  Outcome O;
  GoldenTables Golden;
  std::string Error;
  if (!Golden.load(Opts.GoldenDir, Error)) {
    O.mismatch(Error);
    return O;
  }

  // Set-up: generating the suite's programs. It is timed here and again
  // after every measured pass, outside the pass's time; setup_s is the
  // median. Samples spread over the run see the same share of the host's
  // slow spells as the rest of the run does.
  std::vector<double> SetupMs;
  auto SetUp = [&SetupMs] {
    Clock::time_point T0 = Clock::now();
    std::vector<WorkloadProgram> Programs = generateSuite();
    SetupMs.push_back(msSince(T0));
    return Programs;
  };
  std::vector<WorkloadProgram> Programs = SetUp();
  if (!sameSuite(Programs, extendedSuite())) {
    O.mismatch("the grid's generated suite no longer matches extendedSuite()");
    return O;
  }
  // Each pass runs the programs in its own order, drawn from the seed: one
  // order for a whole run made throughput differ by 20% between seeds.
  FuzzRng R = FuzzRng(Opts.Seed).derive(0);
  auto Shuffle = [&Programs, &R] {
    for (size_t I = Programs.size(); I > 1; --I)
      std::swap(Programs[I - 1], Programs[size_t(R.below(int(I)))]);
  };
  Shuffle();
  const std::vector<SuiteConfig> Configs = allConfigs();

  if (Opts.Trace) {
    tracedGrid(Opts, O, Programs, Configs, Golden);
    return O;
  }

  unsigned Jobs = loadJobs();
  // One unmeasured warm-up pass (thread start-up, allocator growth),
  // checked like the rest.
  checkPass(O, runSuite(Programs, Configs, Jobs, 1, SuiteSharing::Shared),
            Golden);

  std::vector<double> CellLatency, PassMs, Rss;
  double BusyMs = 0;
  Clock::time_point Start = Clock::now();
  while (PassMs.empty() || msSince(Start) < Opts.Seconds * 1000.0) {
    Shuffle();
    Clock::time_point T0 = Clock::now();
    SuiteRunResult Pass =
        runSuite(Programs, Configs, Jobs, 1, SuiteSharing::Shared);
    PassMs.push_back(msSince(T0));
    BusyMs += PassMs.back();
    for (const SuiteCell &Cell : Pass.Cells)
      CellLatency.push_back(Cell.Millis);
    Rss.push_back(liveRssMb());
    checkPass(O, Pass, Golden);
    SetUp();
  }

  double CellsPerS = double(CellLatency.size()) / (BusyMs / 1000.0);
  endToEndMetrics(O, SetupMs, Rss, CellsPerS, CellLatency);
  O.named("setup_s", median(SetupMs) / 1000.0, "s", SetupMs.size(),
          "median suite generation");
  O.named("peak_rss_mb", peakRssMb(), "MB", 1, "VmHWM of the workload process");
  O.named("fail_ratio", O.Attempted ? double(O.Failed) / O.Attempted : 0,
          "ratio", O.Attempted, "base: cells checked");
  O.named("grid_cells_per_s", CellsPerS, "1/s", CellLatency.size(),
          std::to_string(Jobs) + " jobs");
  O.named("grid_pass_p50_ms", median(PassMs), "ms", PassMs.size(),
          std::to_string(Programs.size() * Configs.size()) + " cells a pass");
  O.named("grid_cell_p50_ms", median(CellLatency), "ms", CellLatency.size());
  O.named("grid_cell_p99_ms", percentile(CellLatency, 99), "ms",
          CellLatency.size());
  return O;
}
