//===- perfbench/src/Common.h - Shared benchmark plumbing -------*- C++ -*-===//
//
// Options, statistics, spans, golden tables and result printing shared by
// the three workloads (grid, serve, fuzz).
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point A) {
  return std::chrono::duration<double, std::milli>(Clock::now() - A).count();
}

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string ServeBin;  ///< Path of the ipcp-serve binary (serve workload).
  std::string GoldenDir; ///< Directory holding table2.golden/table3.golden.
  std::string WorkDir;   ///< Scratch directory for port files and logs.
};

/// Threads and connections of the load: min(4, usable cores).
unsigned loadJobs();
/// Usable cores of this process (its affinity mask).
unsigned usableCores();

/// Nearest-rank percentile, \p Q in [0, 100]; 0 for an empty sample.
double percentile(std::vector<double> V, double Q);
inline double median(std::vector<double> V) {
  return percentile(std::move(V), 50);
}

/// Peak resident set (VmHWM) of process \p Pid (0 = this process), in MB.
double peakRssMb(long Pid = 0);
/// Current resident set (VmRSS) of process \p Pid, in MB.
double rssMb(long Pid = 0);
/// This process's resident set once freed heap pages are returned to the
/// system: the memory the workload keeps live between operations, not
/// what the allocator happens to retain.
double liveRssMb();

/// Substituted-constant counts per (program, config name), read from the
/// program's golden Table 2 and Table 3 snapshots.
class GoldenTables {
public:
  bool load(const std::string &Dir, std::string &Error);
  /// Golden count, or -1 when the cell is not pinned by a golden.
  long expected(const std::string &Program, const std::string &Config) const;

private:
  std::map<std::pair<std::string, std::string>, long> Cells;
};

/// Accumulates flat spans around public calls: per name, the summed wall
/// time and the number of calls. One thread records into a Trace; a null
/// Trace records nothing.
class Trace {
public:
  void add(const std::string &Name, double Ms);
  double ms(const std::string &Name) const;
  uint64_t calls(const std::string &Name) const;
  double totalMs() const;

private:
  struct Acc {
    double Ms = 0;
    uint64_t Calls = 0;
  };
  std::map<std::string, Acc> Spans;
};

class Span {
public:
  Span(Trace *T, const char *Name)
      : T(T), Name(Name), Start(T ? Clock::now() : Clock::time_point()) {}
  ~Span() {
    if (T)
      T->add(Name, msSince(Start));
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  Trace *T;
  const char *Name;
  Clock::time_point Start;
};

struct Metric {
  double Value = 0;
  std::string Unit;
  uint64_t Samples = 0; ///< Sample count (latencies) or base (ratios).
  std::string Note;
};

/// Everything one run reports.
struct Outcome {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// This workload's own metric names (grid_cells_per_s, ...), printed
  /// one per line for people.
  std::vector<std::pair<std::string, Metric>> Named;
  /// Values of the BENCHMARK.json metrics (end-to-end or per-layer).
  std::map<std::string, Metric> Metrics;

  void named(const std::string &Name, double Value, const std::string &Unit,
             uint64_t Samples, const std::string &Note = "") {
    Named.push_back({Name, Metric{Value, Unit, Samples, Note}});
  }
  void metric(const std::string &Name, double Value, uint64_t Samples = 0,
              const std::string &Note = "");
  /// Records a mismatch: counted as failed, printed, and makes the run
  /// incorrect.
  void mismatch(const std::string &What);
};

/// Records the end-to-end metrics of an untraced run: the median set-up
/// time, the median resident-set sample, the throughput, and the p50 and
/// p90 of the operation latencies.
void endToEndMetrics(Outcome &O, const std::vector<double> &SetupMs,
                     const std::vector<double> &RssMb, double OpsPerS,
                     const std::vector<double> &LatencyMs);

/// The BENCHMARK.json metric catalogue, name -> unit.
const std::vector<std::pair<std::string, std::string>> &endToEndCatalog();
const std::vector<std::pair<std::string, std::string>> &perLayerCatalog();
/// Layers only the fuzz workload reaches (exec, fuzz). Fuzz is not a
/// BENCHMARK.json workload, so these print as `layer` lines only.
const std::vector<std::pair<std::string, std::string>> &fuzzLayerCatalog();
std::string unitOf(const std::string &Name);

/// Prints the host block, the named metrics, and the one-line JSON result
/// with every catalogue metric of the run's kind (missing per-layer
/// metrics of a layer the workload does not reach print as 0). A traced
/// run also prints the fuzz-only layers it measured, outside the JSON.
void printOutcome(const Options &Opts, const Outcome &O);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
