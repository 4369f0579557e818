//===- perfbench/src/Common.cpp - Shared benchmark plumbing ---------------===//

#include "Common.h"

#include "exec/Vm.h"

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>

using namespace perfbench;

unsigned perfbench::usableCores() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return std::max(1, CPU_COUNT(&Set));
  return 1;
}

unsigned perfbench::loadJobs() { return std::min(4u, usableCores()); }

double perfbench::percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  // Nearest rank: the smallest value with at least Q% of the sample at or
  // below it.
  size_t Rank = static_cast<size_t>(std::ceil(Q / 100.0 * double(V.size())));
  Rank = std::clamp<size_t>(Rank, 1, V.size());
  return V[Rank - 1];
}

namespace {

double statusMb(long Pid, const std::string &Field) {
  std::string Path =
      Pid ? "/proc/" + std::to_string(Pid) + "/status" : "/proc/self/status";
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind(Field, 0) == 0)
      return std::stod(Line.substr(Field.size())) / 1024.0; // kB -> MB
  return 0;
}

} // namespace

double perfbench::peakRssMb(long Pid) { return statusMb(Pid, "VmHWM:"); }
double perfbench::rssMb(long Pid) { return statusMb(Pid, "VmRSS:"); }

double perfbench::liveRssMb() {
  malloc_trim(0);
  return rssMb();
}

void perfbench::endToEndMetrics(Outcome &O, const std::vector<double> &SetupMs,
                                const std::vector<double> &RssMb,
                                double OpsPerS,
                                const std::vector<double> &LatencyMs) {
  O.metric("setup_s", median(SetupMs) / 1000.0, SetupMs.size());
  O.metric("rss_mb", median(RssMb), RssMb.size());
  O.metric("ops_per_s", OpsPerS, LatencyMs.size());
  O.metric("op_p50_ms", percentile(LatencyMs, 50), LatencyMs.size());
  O.metric("op_p90_ms", percentile(LatencyMs, 90), LatencyMs.size());
}

bool GoldenTables::load(const std::string &Dir, std::string &Error) {
  // Column names of the golden headers that differ from the suite's
  // configuration names; "withmod" repeats "poly" and "dce-rounds" is not
  // a substitution count.
  const std::map<std::string, std::string> Rename = {
      {"nomod", "poly-nomod"}, {"withmod", "poly"}, {"dce-rounds", ""}};
  for (const char *File : {"table2.golden", "table3.golden"}) {
    std::ifstream In(Dir + "/" + File);
    if (!In) {
      Error = "cannot read golden table " + Dir + "/" + File;
      return false;
    }
    std::vector<std::string> Columns;
    std::string Line;
    while (std::getline(In, Line)) {
      if (Line.empty())
        continue;
      std::istringstream Row(Line);
      std::string Word;
      if (Line[0] == '#') {
        Row >> Word; // '#'
        Row >> Word; // "program"
        Columns.clear();
        while (Row >> Word) {
          auto It = Rename.find(Word);
          Columns.push_back(It == Rename.end() ? Word : It->second);
        }
        continue;
      }
      std::string Program;
      Row >> Program;
      for (const std::string &Column : Columns) {
        long Value = -1;
        if (!(Row >> Value)) {
          Error = std::string("truncated golden row in ") + File + ": " + Line;
          return false;
        }
        if (!Column.empty())
          Cells[{Program, Column}] = Value;
      }
    }
  }
  if (Cells.empty()) {
    Error = "golden tables in " + Dir + " hold no cells";
    return false;
  }
  return true;
}

long GoldenTables::expected(const std::string &Program,
                            const std::string &Config) const {
  auto It = Cells.find({Program, Config});
  return It == Cells.end() ? -1 : It->second;
}

void Trace::add(const std::string &Name, double Ms) {
  Acc &A = Spans[Name];
  A.Ms += Ms;
  ++A.Calls;
}

double Trace::ms(const std::string &Name) const {
  auto It = Spans.find(Name);
  return It == Spans.end() ? 0 : It->second.Ms;
}

uint64_t Trace::calls(const std::string &Name) const {
  auto It = Spans.find(Name);
  return It == Spans.end() ? 0 : It->second.Calls;
}

double Trace::totalMs() const {
  double Sum = 0;
  for (const auto &[Name, A] : Spans)
    Sum += A.Ms;
  return Sum;
}

const std::vector<std::pair<std::string, std::string>> &
perfbench::endToEndCatalog() {
  static const std::vector<std::pair<std::string, std::string>> C = {
      {"setup_s", "s"},    {"rss_mb", "MB"},    {"ops_per_s", "1/s"},
      {"op_p50_ms", "ms"}, {"op_p90_ms", "ms"},
  };
  return C;
}

const std::vector<std::pair<std::string, std::string>> &
perfbench::perLayerCatalog() {
  static const std::vector<std::pair<std::string, std::string>> C = {
      {"lang.parse_ms", "ms"},
      {"lang.sema_ms", "ms"},
      {"lang.tokens_per_s", "1/s"},
      {"ir.lower_ms", "ms"},
      {"ir.ssa_ms", "ms"},
      {"ir.instrs", "count"},
      {"analysis.callgraph_ms", "ms"},
      {"analysis.modref_ms", "ms"},
      {"analysis.alias_ms", "ms"},
      {"analysis.copyprop_ms", "ms"},
      {"ipcp.jf_ms", "ms"},
      {"ipcp.solve_ms", "ms"},
      {"ipcp.substitute_ms", "ms"},
      {"ipcp.dce_ms", "ms"},
      {"ipcp.teardown_ms", "ms"},
      {"ipcp.jf_evaluations", "count"},
      {"ipcp.memo_hit_ratio", "ratio"},
      {"ipcp.ssa_reuse_ratio", "ratio"},
      {"ipcp.vn_reuse_ratio", "ratio"},
      {"ipcp.jf_base_reuse_ratio", "ratio"},
      {"workloads.parallel_efficiency", "ratio"},
      {"workloads.jf_parallel_slowdown", "ratio"},
      {"serve.parse_request_ms", "ms"},
      {"serve.render_ms", "ms"},
      {"serve.roundtrip_ms", "ms"},
      {"serve.reply_hit_ratio", "ratio"},
      {"serve.session_hit_ratio", "ratio"},
      {"serve.evictions", "count"},
      {"serve.queue_high_water", "count"},
      {"serve.cold_p50_ms", "ms"},
      {"serve.cold_p99_ms", "ms"},
      {"serve.warm_p50_ms", "ms"},
      {"serve.warm_p99_ms", "ms"},
      {"serve.hit_p50_ms", "ms"},
      {"serve.hit_p90_ms", "ms"},
      {"trace.coverage", "ratio"},
      {"trace.gap_ratio", "ratio"},
  };
  return C;
}

const std::vector<std::pair<std::string, std::string>> &
perfbench::fuzzLayerCatalog() {
  static const std::vector<std::pair<std::string, std::string>> C = {
      {"exec.oracle_ms", "ms"},   {"exec.compile_ms", "ms"},
      {"exec.run_ms", "ms"},      {"exec.steps_per_s", "1/s"},
      {"fuzz.mutate_ms", "ms"},   {"fuzz.valid_mutant_ratio", "ratio"},
      {"fuzz.evaluate_ms", "ms"},
  };
  return C;
}

std::string perfbench::unitOf(const std::string &Name) {
  for (const auto *Catalog :
       {&endToEndCatalog(), &perLayerCatalog(), &fuzzLayerCatalog()})
    for (const auto &[N, U] : *Catalog)
      if (N == Name)
        return U;
  return "";
}

void Outcome::metric(const std::string &Name, double Value, uint64_t Samples,
                     const std::string &Note) {
  Metrics[Name] = Metric{Value, unitOf(Name), Samples, Note};
}

void Outcome::mismatch(const std::string &What) {
  Correct = false;
  ++Failed;
  // Every mismatch counts; the first few are printed.
  if (Failed <= 20)
    std::cout << "MISMATCH " << What << "\n";
  else if (Failed == 21)
    std::cout << "MISMATCH (further mismatches counted, not printed)\n";
}

namespace {

/// Shortest text that reads back as exactly \p V.
std::string number(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[64];
  auto [End, Ec] = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return Ec == std::errc() ? std::string(Buf, End) : std::to_string(V);
}

std::string sanitizer() {
  std::string S = PERFBENCH_SANITIZE;
  return S.empty() ? "OFF" : S;
}

} // namespace

void perfbench::printOutcome(const Options &Opts, const Outcome &O) {
  std::cout << "host {\"nproc\":" << usableCores()
            << ",\"load_jobs\":" << loadJobs() << ",\"build_type\":\""
            << PERFBENCH_BUILD_TYPE << "\",\"vm_dispatch\":\""
            << ipcp::vmDispatchMode() << "\",\"sanitizer\":\"" << sanitizer()
            << "\"}\n";
  std::cout << "workload " << Opts.Workload << " seed=" << Opts.Seed
            << " seconds=" << Opts.Seconds << " trace=" << Opts.Trace
            << "\n";
  for (const auto &[Name, M] : O.Named)
    std::cout << "metric " << Name << " " << number(M.Value) << " " << M.Unit
              << " n=" << M.Samples
              << (M.Note.empty() ? "" : " (" + M.Note + ")")
              << "\n";

  const auto &Catalog = Opts.Trace ? perLayerCatalog() : endToEndCatalog();
  std::ostringstream J;
  J << "{\"correct\": " << (O.Correct ? "true" : "false")
    << ", \"attempted\": " << O.Attempted << ", \"failed\": " << O.Failed
    << ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, Unit] : Catalog) {
    auto It = O.Metrics.find(Name);
    Metric M =
        It == O.Metrics.end() ? Metric{0, Unit, 0, "absent"} : It->second;
    std::cout << (Opts.Trace ? "layer " : "e2e ") << Name << " "
              << number(M.Value) << " " << Unit << " n=" << M.Samples
              << (M.Note.empty() ? "" : " (" + M.Note + ")") << "\n";
    J << (First ? "" : ", ") << "\"" << Name << "\": {\"value\": "
      << number(M.Value) << ", \"unit\": \"" << Unit << "\"}";
    First = false;
  }
  J << "}}";
  if (Opts.Trace)
    for (const auto &[Name, Unit] : fuzzLayerCatalog())
      if (auto It = O.Metrics.find(Name); It != O.Metrics.end())
        std::cout << "layer " << Name << " " << number(It->second.Value)
                  << " " << Unit << " n=" << It->second.Samples
                  << (It->second.Note.empty() ? ""
                                              : " (" + It->second.Note + ")")
                  << "\n";
  std::cout << J.str() << std::endl;
}
