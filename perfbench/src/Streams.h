//===- perfbench/src/Streams.h - Seeded workload inputs ---------*- C++ -*-===//
//
// Every input the program under test sees is a pure function of --seed:
// the serve request stream and the fuzz parents and mutation seeds. The
// same seed gives the same inputs; selfTest() checks that.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STREAMS_H
#define PERFBENCH_STREAMS_H

#include "workloads/Suite.h"
#include "workloads/SuiteRunner.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Request classes of one serve edit cycle, in send order.
enum class ServeClass { Cold, Warm, Hit };
inline constexpr unsigned StepsPerCycle = 4; // cold A, warm B, warm C, hit A
ServeClass classOfStep(unsigned Step);

/// One edit cycle of one serve client: a never-seen variant (a unique
/// trailing comment) of one suite program, and three distinct configs.
struct ServeCycle {
  size_t Program = 0;
  size_t Configs[3] = {0, 0, 0}; ///< A, B, C as indices into allConfigs().
  std::string Source;
  /// Index into allConfigs() of step \p Step (A, B, C, A).
  size_t configOfStep(unsigned Step) const {
    return Configs[Step == 3 ? 0 : Step];
  }
};

ServeCycle serveCycle(uint64_t Seed, unsigned Client, uint64_t Cycle,
                      const std::vector<ipcp::WorkloadProgram> &Programs,
                      size_t NumConfigs);

/// The analyze-source request line of step \p Step of \p C.
std::string serveRequestLine(const ServeCycle &C, unsigned Step,
                             const std::vector<ipcp::SuiteConfig> &Configs,
                             const std::string &Id);

/// The fuzz parent pool: random programs shaped like ipcp-fuzz's seeds.
std::vector<std::string> fuzzParents(uint64_t Seed, size_t Count);

/// Parent and mutation seed of fuzz operation \p Op.
struct FuzzDraw {
  size_t Parent = 0;
  uint64_t MutationSeed = 0;
};
FuzzDraw fuzzDraw(uint64_t Seed, uint64_t Op, size_t NumParents);

uint64_t fnv1a(const std::string &Bytes, uint64_t H = 0xcbf29ce484222325ull);

/// Hashes of the first cycles of the serve stream and the first mutants
/// of the fuzz stream for \p Seed.
struct StreamHashes {
  uint64_t Serve = 0;
  uint64_t Fuzz = 0;
};
StreamHashes streamHashes(uint64_t Seed);

/// Same seed -> same streams, other seed -> other streams. Prints the
/// hashes and returns the process exit code.
int selfTest(uint64_t Seed);

} // namespace perfbench

#endif // PERFBENCH_STREAMS_H
