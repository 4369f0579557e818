//===- perfbench/src/main.cpp - Benchmark entry point ---------------------===//
//
//   ipcp-perfbench --workload <grid|serve|fuzz> --seed <n> --seconds <s>
//                  --trace <0|1> --golden-dir <dir> --work-dir <dir>
//                  [--serve-bin <path>]
//   ipcp-perfbench --selftest --seed <n>
//
// Prints a host block, the workload's metrics one per line, and last one
// JSON line {"correct", "attempted", "failed", "metrics"}. Exits 1 when an
// output check failed (a grid or serve mismatch, a replica disagreement, a
// fuzz failure that does not reproduce), 2 on bad usage.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Streams.h"
#include "Workloads.h"

#include <cstdlib>
#include <iostream>
#include <string>

using namespace perfbench;

namespace {

int usage(const std::string &Why) {
  std::cerr << "error: " << Why << "\n"
            << "usage: ipcp-perfbench --workload <grid|serve|fuzz> --seed <n> "
               "--seconds <s> --trace <0|1> --golden-dir <dir> --work-dir "
               "<dir> [--serve-bin <path>]\n"
               "       ipcp-perfbench --selftest --seed <n>\n";
  return 2;
}

bool parseNumber(const std::string &Text, double &Out) {
  char *End = nullptr;
  Out = std::strtod(Text.c_str(), &End);
  return !Text.empty() && End && *End == '\0';
}

} // namespace

int main(int argc, char **argv) {
  Options Opts;
  bool SelfTest = false;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--selftest") {
      SelfTest = true;
      continue;
    }
    if (I + 1 >= argc)
      return usage("missing value for " + Arg);
    std::string Value = argv[++I];
    double N = 0;
    if (Arg == "--workload") {
      Opts.Workload = Value;
    } else if (Arg == "--seed") {
      if (!parseNumber(Value, N) || N < 0)
        return usage("bad --seed");
      Opts.Seed = static_cast<uint64_t>(N);
    } else if (Arg == "--seconds") {
      if (!parseNumber(Value, N) || N <= 0)
        return usage("bad --seconds");
      Opts.Seconds = N;
    } else if (Arg == "--trace") {
      if (Value != "0" && Value != "1")
        return usage("--trace takes 0 or 1");
      Opts.Trace = Value == "1";
    } else if (Arg == "--serve-bin") {
      Opts.ServeBin = Value;
    } else if (Arg == "--golden-dir") {
      Opts.GoldenDir = Value;
    } else if (Arg == "--work-dir") {
      Opts.WorkDir = Value;
    } else {
      return usage("unknown option " + Arg);
    }
  }
  if (SelfTest)
    return selfTest(Opts.Seed);
  if (Opts.GoldenDir.empty() || Opts.WorkDir.empty())
    return usage("--golden-dir and --work-dir are required");
  if (Opts.Workload == "serve" && Opts.ServeBin.empty())
    return usage("the serve workload needs --serve-bin");

  Outcome O;
  if (Opts.Workload == "grid")
    O = runGrid(Opts);
  else if (Opts.Workload == "serve")
    O = runServe(Opts);
  else if (Opts.Workload == "fuzz")
    O = runFuzz(Opts);
  else
    return usage("unknown workload '" + Opts.Workload + "'");
  if (O.Attempted == 0)
    O.mismatch("no operation was attempted");
  printOutcome(Opts, O);
  return O.Correct ? 0 : 1;
}
