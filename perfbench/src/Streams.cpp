//===- perfbench/src/Streams.cpp - Seeded workload inputs -----------------===//

#include "Streams.h"

#include "fuzz/FuzzRng.h"
#include "fuzz/Mutator.h"
#include "serve/Protocol.h"
#include "workloads/RandomProgram.h"

#include <cstdio>

using namespace ipcp;
using namespace perfbench;

namespace {

/// Stream ids under the master seed, kept apart so one stream's length
/// never shifts another's draws.
constexpr uint64_t ServeStream = 1;
constexpr uint64_t FuzzParentStream = 2;
constexpr uint64_t FuzzOpStream = 3;

} // namespace

ServeClass perfbench::classOfStep(unsigned Step) {
  return Step == 0 ? ServeClass::Cold
                   : Step == 3 ? ServeClass::Hit : ServeClass::Warm;
}

ServeCycle perfbench::serveCycle(uint64_t Seed, unsigned Client,
                                 uint64_t Cycle,
                                 const std::vector<WorkloadProgram> &Programs,
                                 size_t NumConfigs) {
  FuzzRng R = FuzzRng(Seed)
                  .derive(ServeStream)
                  .derive(Client)
                  .derive(Cycle);
  ServeCycle C;
  C.Program = static_cast<size_t>(R.below(int(Programs.size())));
  // Three distinct configurations: a partial Fisher-Yates draw.
  std::vector<size_t> Pick(NumConfigs);
  for (size_t I = 0; I != NumConfigs; ++I)
    Pick[I] = I;
  for (size_t I = 0; I != 3; ++I) {
    size_t J = I + static_cast<size_t>(R.below(int(NumConfigs - I)));
    std::swap(Pick[I], Pick[J]);
    C.Configs[I] = Pick[I];
  }
  const std::string &Base = Programs[C.Program].Source;
  char Comment[96];
  std::snprintf(Comment, sizeof(Comment),
                "! variant seed=%llu client=%u cycle=%llu\n",
                static_cast<unsigned long long>(Seed), Client,
                static_cast<unsigned long long>(Cycle));
  C.Source = Base;
  if (!C.Source.empty() && C.Source.back() != '\n')
    C.Source += '\n';
  C.Source += Comment;
  return C;
}

std::string perfbench::serveRequestLine(const ServeCycle &C, unsigned Step,
                                        const std::vector<SuiteConfig> &Configs,
                                        const std::string &Id) {
  ServeRequest Req;
  Req.Id = Id;
  Req.Method = ServeMethod::AnalyzeSource;
  Req.Config = Configs[C.configOfStep(Step)].Opts;
  Req.Report.Stats = true;
  Req.Source = C.Source;
  return serializeServeRequest(Req);
}

std::vector<std::string> perfbench::fuzzParents(uint64_t Seed, size_t Count) {
  FuzzRng Master = FuzzRng(Seed).derive(FuzzParentStream);
  std::vector<std::string> Parents;
  Parents.reserve(Count);
  for (size_t I = 0; I != Count; ++I) {
    // The spec ranges of ipcp-fuzz's generated seed programs.
    FuzzRng R = Master.derive(I);
    RandomSpec Spec;
    Spec.Seed = R.next();
    Spec.Procs = 3 + R.below(5);
    Spec.Globals = 1 + R.below(4);
    Spec.MaxStmtsPerProc = 6 + R.below(8);
    Spec.AllowRecursion = R.chance(40);
    Parents.push_back(generateRandomProgram(Spec));
  }
  return Parents;
}

FuzzDraw perfbench::fuzzDraw(uint64_t Seed, uint64_t Op, size_t NumParents) {
  FuzzRng R = FuzzRng(Seed).derive(FuzzOpStream).derive(Op);
  FuzzDraw D;
  D.Parent = static_cast<size_t>(R.below(int(NumParents)));
  D.MutationSeed = R.next();
  return D;
}

uint64_t perfbench::fnv1a(const std::string &Bytes, uint64_t H) {
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

StreamHashes perfbench::streamHashes(uint64_t Seed) {
  constexpr unsigned Clients = 4, Cycles = 32, Mutants = 48, Parents = 64;
  const std::vector<WorkloadProgram> &Programs = extendedSuite();
  const std::vector<SuiteConfig> Configs = allConfigs();
  StreamHashes H;
  H.Serve = fnv1a("serve");
  for (unsigned Cl = 0; Cl != Clients; ++Cl)
    for (uint64_t K = 0; K != Cycles; ++K) {
      ServeCycle C = serveCycle(Seed, Cl, K, Programs, Configs.size());
      for (unsigned Step = 0; Step != StepsPerCycle; ++Step)
        H.Serve = fnv1a(serveRequestLine(C, Step, Configs, "x") + "\n",
                        H.Serve);
    }
  std::vector<std::string> Pool = fuzzParents(Seed, Parents);
  H.Fuzz = fnv1a("fuzz");
  for (uint64_t Op = 0; Op != Mutants; ++Op) {
    FuzzDraw D = fuzzDraw(Seed, Op, Pool.size());
    MutationOptions MO;
    MO.Seed = D.MutationSeed;
    MutationResult MR = mutateProgram(Pool[D.Parent], MO);
    H.Fuzz = fnv1a((MR.Ok ? MR.Source : "<invalid>") + "\n", H.Fuzz);
  }
  return H;
}

int perfbench::selfTest(uint64_t Seed) {
  StreamHashes A = streamHashes(Seed);
  StreamHashes B = streamHashes(Seed);
  StreamHashes Other = streamHashes(Seed + 1);
  std::printf("seed %llu: serve %016llx fuzz %016llx\n",
              static_cast<unsigned long long>(Seed),
              static_cast<unsigned long long>(A.Serve),
              static_cast<unsigned long long>(A.Fuzz));
  std::printf("seed %llu: serve %016llx fuzz %016llx\n",
              static_cast<unsigned long long>(Seed + 1),
              static_cast<unsigned long long>(Other.Serve),
              static_cast<unsigned long long>(Other.Fuzz));
  bool Ok = true;
  if (A.Serve != B.Serve || A.Fuzz != B.Fuzz) {
    std::printf("FAIL: the same seed gave different streams\n");
    Ok = false;
  }
  if (A.Serve == Other.Serve || A.Fuzz == Other.Fuzz) {
    std::printf("FAIL: another seed gave the same stream\n");
    Ok = false;
  }
  std::printf("%s\n", Ok ? "seed determinism OK" : "seed determinism FAILED");
  return Ok ? 0 : 1;
}
