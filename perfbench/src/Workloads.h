//===- perfbench/src/Workloads.h - The three workloads ----------*- C++ -*-===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Common.h"

namespace perfbench {

/// The paper's experiment: the 15-program x 13-config grid on fresh
/// sessions, every cell checked against the golden tables.
Outcome runGrid(const Options &Opts);

/// Closed-loop ipcp-serve clients repeating cold/warm/warm/hit edit
/// cycles, every reply checked byte for byte.
Outcome runServe(const Options &Opts);

/// Single-thread mutate + evaluateProgram, every failure reported.
Outcome runFuzz(const Options &Opts);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
