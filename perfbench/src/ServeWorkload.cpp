//===- perfbench/src/ServeWorkload.cpp - Closed-loop ipcp-serve load ------===//
//
// A spawned `ipcp-serve --tcp=0 --no-stdio --workers=J` driven over
// loopback by J closed-loop clients, one connection each (J = min(4,
// nproc)). Each client repeats one edit cycle drawn from the seed: cold
// (a never-seen variant of a suite program under config A), warm (the same
// source under B and C), hit (the cold request again), so cold : warm :
// hit = 1 : 2 : 1. Every reply must equal, byte for byte, the reply built
// from a one-shot renderAnalysisReport(runPipeline(...)), and its
// substituted count must equal the golden.
//
//===----------------------------------------------------------------------===//

#include "Replica.h"
#include "Streams.h"
#include "Workloads.h"

#include "ipcp/AnalysisSession.h"
#include "lang/AstClone.h"
#include "serve/Client.h"
#include "serve/Json.h"
#include "serve/Protocol.h"
#include "serve/Render.h"
#include "support/Subprocess.h"

#include <fstream>
#include <iostream>
#include <map>
#include <thread>

using namespace ipcp;
using namespace perfbench;

namespace {

/// One spawned server and the clients connected to it.
class ServerProcess {
public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess &) = delete;
  ServerProcess &operator=(const ServerProcess &) = delete;
  ~ServerProcess() {
    Clients.clear();
    if (Proc.running()) {
      Proc.kill();
      Proc.wait();
    }
  }

  /// Spawns the server and connects \p Workers clients, each of which has
  /// seen one `stats` reply: the server is ready for load.
  bool start(const Options &Opts, unsigned Workers, unsigned Index,
             std::string &Error) {
    std::string Suffix = std::to_string(Index);
    std::string PortFile = Opts.WorkDir + "/serve-port-" + Suffix;
    std::remove(PortFile.c_str());
    std::string Log = Opts.WorkDir + "/serve-" + Suffix + ".log";
    if (!Proc.spawn({Opts.ServeBin, "--tcp=0", "--port-file=" + PortFile,
                     "--no-stdio", "--workers=" + std::to_string(Workers)},
                    Log, Log, Error))
      return false;
    std::string Port;
    Clock::time_point Start = Clock::now();
    while (true) {
      std::ifstream In(PortFile);
      std::string Text((std::istreambuf_iterator<char>(In)),
                       std::istreambuf_iterator<char>());
      if (!Text.empty() && Text.back() == '\n') {
        Port = Text.substr(0, Text.size() - 1);
        break;
      }
      if (!Proc.running() || msSince(Start) > 20000) {
        Error = "ipcp-serve did not report its port (log: " + Log + ")";
        return false;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    std::string Url = "127.0.0.1:" + Port;
    for (unsigned I = 0; I != Workers; ++I) {
      Clients.push_back(std::make_unique<ServeClient>());
      std::string Reply;
      if (!Clients.back()->connect(Url, Error) ||
          !Clients.back()->call("{\"id\":\"ready\",\"method\":\"stats\"}",
                                Reply, Error))
        return false;
    }
    return true;
  }

  /// The server's `stats` reply, parsed.
  std::optional<JsonValue> stats(std::string &Error) {
    std::string Reply;
    if (!Clients[0]->call("{\"id\":\"stats\",\"method\":\"stats\"}", Reply,
                          Error))
      return std::nullopt;
    std::optional<JsonValue> J = parseJson(Reply, Error);
    if (!J)
      return std::nullopt;
    const JsonValue *R = J->find("result");
    if (!R) {
      Error = "stats reply without result: " + Reply;
      return std::nullopt;
    }
    return *R;
  }

  /// Graceful shutdown; false if the server did not exit cleanly.
  bool stop(std::string &Error) {
    std::string Reply;
    bool Sent = Clients[0]->call("{\"id\":\"bye\",\"method\":\"shutdown\"}",
                                 Reply, Error);
    Clients.clear();
    if (!Sent) {
      Proc.kill();
      Proc.wait();
      return false;
    }
    ProcessExit E = Proc.wait();
    if (!E.ok()) {
      Error = "ipcp-serve exited with " + E.str();
      return false;
    }
    return true;
  }

  long pid() const { return Proc.pid(); }
  ServeClient &client(unsigned I) { return *Clients[I]; }

private:
  Subprocess Proc;
  std::vector<std::unique_ptr<ServeClient>> Clients;
};

struct Record {
  uint64_t Cycle = 0;
  unsigned Step = 0;
  double Ms = 0;
  bool Transported = false;
  std::string Reply;
};

struct ClientLog {
  std::vector<Record> Requests;
  std::vector<double> RoundtripMs; ///< Inline `stats` probes (traced only).
  std::string Error;
};

std::string requestId(unsigned Client, uint64_t Cycle, unsigned Step) {
  return "c" + std::to_string(Client) + "-" + std::to_string(Cycle) + "-" +
         std::to_string(Step);
}

/// Runs every client until \p Ms elapse, sampling the server's resident
/// set every 100 ms into \p Rss; returns the load's wall time.
double driveLoad(ServerProcess &Server, unsigned Clients, uint64_t Seed,
                 double Ms, bool ProbeRoundtrip,
                 const std::vector<WorkloadProgram> &Programs,
                 const std::vector<SuiteConfig> &Configs,
                 std::vector<ClientLog> &Logs, std::vector<double> &Rss) {
  Logs.assign(Clients, ClientLog());
  Clock::time_point Start = Clock::now();
  Clock::time_point Deadline =
      Start + std::chrono::microseconds(static_cast<int64_t>(Ms * 1000));
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C != Clients; ++C)
    Threads.emplace_back([&, C] {
      ClientLog &Log = Logs[C];
      ServeClient &Conn = Server.client(C);
      for (uint64_t K = 0; Clock::now() < Deadline; ++K) {
        ServeCycle Cycle = serveCycle(Seed, C, K, Programs, Configs.size());
        for (unsigned Step = 0; Step != StepsPerCycle; ++Step) {
          if (Clock::now() >= Deadline)
            return;
          std::string Line =
              serveRequestLine(Cycle, Step, Configs, requestId(C, K, Step));
          Record R;
          R.Cycle = K;
          R.Step = Step;
          Clock::time_point T0 = Clock::now();
          R.Transported = Conn.call(Line, R.Reply, Log.Error);
          R.Ms = msSince(T0);
          Log.Requests.push_back(std::move(R));
          if (!Log.Requests.back().Transported)
            return;
        }
        if (ProbeRoundtrip) {
          std::string Reply, Error;
          Clock::time_point T0 = Clock::now();
          if (Conn.call("{\"id\":\"rt\",\"method\":\"stats\"}", Reply, Error))
            Log.RoundtripMs.push_back(msSince(T0));
        }
      }
    });
  while (Clock::now() < Deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    Rss.push_back(rssMb(Server.pid()));
  }
  for (std::thread &T : Threads)
    T.join();
  return msSince(Start);
}

struct Reference {
  std::string Output;
  unsigned Substituted = 0;
};

/// The reply the server must send for \p R, built from the one-shot
/// reference.
std::string expectedReply(const Reference &Ref, const std::string &Id,
                          bool Cached) {
  JsonValue Payload = JsonValue::object();
  Payload.set("output", JsonValue(Ref.Output));
  Payload.set("substituted", JsonValue(static_cast<uint64_t>(Ref.Substituted)));
  Payload.set("cached", JsonValue(Cached));
  return makeOkReply(Id, Payload);
}

Reference oneShot(const std::string &Source, const PipelineOptions &Opts) {
  ReportOptions Report;
  Report.Stats = true;
  PipelineResult R = runPipeline(Source, Opts);
  Reference Ref;
  Ref.Output = R.Ok ? renderAnalysisReport(Opts, R, Report)
                    : "<pipeline error: " + R.Error + ">";
  Ref.Substituted = R.SubstitutedConstants;
  return Ref;
}

/// Checks every recorded reply; returns how many hit-class requests were
/// recomputed because their variant had been evicted.
uint64_t checkReplies(Outcome &O, uint64_t Seed,
                  const std::vector<ClientLog> &Logs,
                  const std::vector<WorkloadProgram> &Programs,
                  const std::vector<SuiteConfig> &Configs,
                  const GoldenTables &Golden) {
  // One-shot references per (program, config) on the unmodified source.
  // The trailing comment cannot change an analysis; every 16th cycle is
  // re-checked on its exact variant source to keep that claim honest.
  std::map<std::pair<size_t, size_t>, Reference> Refs;
  uint64_t EvictedHits = 0;
  auto RefOf = [&](size_t P, size_t C) -> const Reference & {
    auto It = Refs.find({P, C});
    if (It == Refs.end()) {
      It = Refs.emplace(std::make_pair(P, C),
                        oneShot(Programs[P].Source, Configs[C].Opts))
               .first;
      long Want = Golden.expected(Programs[P].Name, Configs[C].Name);
      if (long(It->second.Substituted) != Want)
        O.mismatch("serve reference " + Programs[P].Name + "/" +
                   Configs[C].Name + " != golden " + std::to_string(Want));
    }
    return It->second;
  };
  for (unsigned C = 0; C != Logs.size(); ++C) {
    if (!Logs[C].Error.empty())
      O.mismatch("serve client " + std::to_string(C) + ": " + Logs[C].Error);
    for (const Record &R : Logs[C].Requests) {
      ServeCycle Cycle = serveCycle(Seed, C, R.Cycle, Programs, Configs.size());
      size_t Cfg = Cycle.configOfStep(R.Step);
      const Reference &Ref = RefOf(Cycle.Program, Cfg);
      ++O.Attempted;
      std::string Id = requestId(C, R.Cycle, R.Step);
      if (!R.Transported) {
        O.mismatch("serve transport failure on " + Id);
        continue;
      }
      // A hit comes from the reply cache unless the LRU evicted the
      // variant while its cycle ran (other clients' cold requests); then
      // it is computed again. Either way the bytes are fixed.
      bool Hit = classOfStep(R.Step) == ServeClass::Hit;
      if (Hit && R.Reply == expectedReply(Ref, Id, false))
        ++EvictedHits;
      else if (R.Reply != expectedReply(Ref, Id, Hit)) {
        O.mismatch("serve reply " + Id +
                   " differs: got " + R.Reply.substr(0, 200));
        continue;
      }
      if (R.Cycle % 16 == 0 && R.Step == 0) {
        Reference Exact = oneShot(Cycle.Source, Configs[Cfg].Opts);
        if (Exact.Output != Ref.Output)
          O.mismatch("serve variant " + Id + " analyzes differently");
      }
    }
  }
  return EvictedHits;
}

double ratioOf(const JsonValue &Stats, const char *Num, uint64_t Den) {
  const JsonValue *Cache = Stats.find("cache");
  if (!Cache || Den == 0)
    return 0;
  return double(Cache->intOr(Num, 0)) / double(Den);
}

/// Per-layer replica of recorded cycles: the server's work rebuilt from
/// public calls, its rendered replies compared with the bytes the server
/// sent.
void replicaPhase(const Options &Opts, Outcome &O,
                  const std::vector<ClientLog> &Logs,
                  const std::vector<WorkloadProgram> &Programs,
                  const std::vector<SuiteConfig> &Configs) {
  Trace T;
  uint64_t Requests = 0, Tokens = 0, Instrs = 0, ColdCount = 0, JfEvals = 0,
           Analyses = 0;
  SessionStats Stats;
  ReportOptions Report;
  Report.Stats = true;
  Clock::time_point Start = Clock::now();
  double Budget = Opts.Seconds * 1000.0 / 2;
  // Cycles in the order clients completed them, round-robin over clients.
  size_t MaxRecords = 0;
  for (const ClientLog &L : Logs)
    MaxRecords = std::max(MaxRecords, L.Requests.size());
  for (size_t Base = 0;
       Base < MaxRecords && (Requests == 0 || msSince(Start) < Budget);
       Base += StepsPerCycle)
    for (unsigned C = 0; C != Logs.size(); ++C) {
      const std::vector<Record> &Recs = Logs[C].Requests;
      if (Base + StepsPerCycle > Recs.size())
        continue;
      uint64_t K = Recs[Base].Cycle;
      ServeCycle Cycle = serveCycle(Opts.Seed, C, K, Programs, Configs.size());
      Frontend F, RefF;
      std::unique_ptr<AnalysisSession> Session, RefSession;
      std::map<size_t, JsonValue> Cached;
      for (unsigned Step = 0; Step != StepsPerCycle; ++Step) {
        std::string Id = requestId(C, K, Step);
        std::string Line = serveRequestLine(Cycle, Step, Configs, Id);
        ServeRequest Req;
        std::string Error;
        {
          Span S(&T, "serve.parse_request");
          if (!parseServeRequest(Line, Req, Error))
            O.mismatch("serve replica cannot parse its request: " + Error);
        }
        if (Step == 0) {
          F = replicaFrontend(Req.Source, &T);
          if (!F.Error.empty()) {
            O.mismatch("serve replica frontend: " + F.Error);
            return;
          }
          Tokens += F.Tokens;
          {
            Span S(&T, "ipcp.session");
            Session = std::make_unique<AnalysisSession>(*F.Ctx, F.Symbols);
          }
          {
            Span S(&T, "ir.lower");
            for (const auto &Fn : Session->module().Functions)
              Instrs += Fn->numInstrs();
          }
          ++ColdCount;
          // The untraced twin: what the server computes for this cycle,
          // one shared session for configs A, B and C.
          Span S(&T, "ref.untraced");
          RefF = replicaFrontend(Req.Source, nullptr);
          RefSession =
              std::make_unique<AnalysisSession>(*RefF.Ctx, RefF.Symbols);
        }
        std::string Reply;
        const std::string &Sent = Logs[C].Requests[Base + Step].Reply;
        size_t Cfg = Cycle.configOfStep(Step);
        if (classOfStep(Step) == ServeClass::Hit) {
          Span S(&T, "serve.render");
          JsonValue Payload = Cached.at(Cfg);
          // An evicted variant's hit was recomputed; its reply says so.
          bool FromCache = Sent.find("\"cached\":true") != std::string::npos;
          Payload.set("cached", JsonValue(FromCache));
          Reply = makeOkReply(Id, Payload);
        } else {
          Answer A;
          PipelineResult R;
          if (Req.Config.CompletePropagation) {
            std::unique_ptr<AstContext> Clone;
            std::unique_ptr<AnalysisSession> Private;
            {
              Span S(&T, "lang.clone");
              Clone = cloneProgramResolved(*F.Ctx);
              Private = std::make_unique<AnalysisSession>(*Clone, F.Symbols);
            }
            A = replicaPipeline(*Private, Req.Config, &T);
            {
              Span S(&T, "ipcp.teardown");
              Private.reset();
              Clone.reset();
            }
            Span S(&T, "ref.untraced");
            auto RefClone = cloneProgramResolved(*RefF.Ctx);
            AnalysisSession RefPrivate(*RefClone, RefF.Symbols);
            R = runPipelineOnSession(RefPrivate, Req.Config);
          } else {
            A = replicaPipeline(*Session, Req.Config, &T);
            Span S(&T, "ref.untraced");
            R = runPipelineOnSession(*RefSession, Req.Config);
          }
          JfEvals += A.JfEvaluations;
          ++Analyses;
          std::string Why = disagreement(A, answerOf(R));
          if (!Why.empty())
            O.mismatch("serve replica " + Id + ": " + Why);
          // The report prints solver and jump-function statistics that
          // only a PipelineResult carries, so the untraced twin's result
          // is rendered; rendering costs the same for either.
          Span S(&T, "serve.render");
          JsonValue Payload = JsonValue::object();
          Payload.set("output",
                      JsonValue(renderAnalysisReport(Req.Config, R, Report)));
          Payload.set("substituted", JsonValue(static_cast<uint64_t>(
                                         R.SubstitutedConstants)));
          Cached[Cfg] = Payload;
          Payload.set("cached", JsonValue(false));
          Reply = makeOkReply(Id, Payload);
        }
        if (Reply != Sent)
          O.mismatch("serve replica reply " + Id +
                     " differs from the server's");
        ++Requests;
      }
      {
        Span S(&T, "ipcp.teardown");
        Session.reset();
        F.Ctx.reset();
      }
      Span S(&T, "ref.untraced");
      accumulate(Stats, RefSession->stats());
      RefSession.reset();
      RefF.Ctx.reset();
    }
  double Wall = msSince(Start);
  O.Attempted += Requests;
  layerMetrics(O, T, Requests, Tokens);
  perOp(O, T, "serve.parse_request_ms", Requests, {"serve.parse_request"});
  perOp(O, T, "serve.render_ms", Requests, {"serve.render"});
  O.metric("ir.instrs", ColdCount ? double(Instrs) / double(ColdCount) : 0,
           ColdCount, "lowered instructions per cold program");
  O.metric("ipcp.jf_evaluations",
           Analyses ? double(JfEvals) / double(Analyses) : 0, Analyses,
           "solver jump-function evaluations per analysis");
  reuseMetrics(O, Stats);
  traceMetrics(O, T, Wall);
}

} // namespace

Outcome perfbench::runServe(const Options &Opts) {
  Outcome O;
  GoldenTables Golden;
  std::string Error;
  if (!Golden.load(Opts.GoldenDir, Error)) {
    O.mismatch(Error);
    return O;
  }
  const std::vector<WorkloadProgram> &Programs = extendedSuite();
  const std::vector<SuiteConfig> Configs = allConfigs();
  unsigned Jobs = loadJobs();

  // Set-up: spawn the server until J clients have each had a reply. It is
  // timed 21 times before the load (the last server carries it), 100 ms
  // apart; setup_s is the median. Not after the load: fork() then copies
  // the page tables of every logged reply, and with ten samples on each
  // side of the load the medians of ten runs ranged from 4.1 to 11.5 ms.
  std::vector<double> SetupMs;
  unsigned Spawned = 0;
  auto SetUp = [&]() -> std::unique_ptr<ServerProcess> {
    auto S = std::make_unique<ServerProcess>();
    Clock::time_point T0 = Clock::now();
    if (!S->start(Opts, Jobs, Spawned++, Error)) {
      O.mismatch("serve set-up: " + Error);
      return nullptr;
    }
    SetupMs.push_back(msSince(T0));
    return S;
  };
  auto SetUpAndStop = [&](unsigned Times) {
    for (unsigned I = 0; I != Times; ++I) {
      std::unique_ptr<ServerProcess> S = SetUp();
      if (!S)
        return false;
      if (!S->stop(Error)) {
        O.mismatch("serve set-up shutdown: " + Error);
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    return true;
  };
  if (!SetUpAndStop(20))
    return O;
  std::unique_ptr<ServerProcess> Server = SetUp();
  if (!Server)
    return O;

  std::vector<ClientLog> Logs;
  std::vector<double> Rss;
  double LoadMs =
      driveLoad(*Server, Jobs, Opts.Seed,
                Opts.Trace ? Opts.Seconds * 1000.0 / 2 : Opts.Seconds * 1000.0,
                Opts.Trace, Programs, Configs, Logs, Rss);
  std::optional<JsonValue> Stats = Server->stats(Error);
  double PeakRss = peakRssMb(Server->pid());
  if (!Stats)
    O.mismatch("serve stats: " + Error);
  if (!Server->stop(Error))
    O.mismatch("serve shutdown: " + Error);

  std::vector<double> All, ByClass[3], Roundtrip;
  for (const ClientLog &L : Logs) {
    for (const Record &R : L.Requests) {
      All.push_back(R.Ms);
      ByClass[int(classOfStep(R.Step))].push_back(R.Ms);
    }
    Roundtrip.insert(Roundtrip.end(), L.RoundtripMs.begin(),
                     L.RoundtripMs.end());
  }
  uint64_t EvictedHits =
      checkReplies(O, Opts.Seed, Logs, Programs, Configs, Golden);

  const std::vector<double> &Cold = ByClass[int(ServeClass::Cold)];
  const std::vector<double> &Warm = ByClass[int(ServeClass::Warm)];
  const std::vector<double> &Hit = ByClass[int(ServeClass::Hit)];
  uint64_t Analyze = All.size();
  if (Opts.Trace) {
    O.metric("serve.cold_p50_ms", median(Cold), Cold.size());
    O.metric("serve.cold_p99_ms", percentile(Cold, 99), Cold.size());
    O.metric("serve.warm_p50_ms", median(Warm), Warm.size());
    O.metric("serve.warm_p99_ms", percentile(Warm, 99), Warm.size());
    O.metric("serve.hit_p50_ms", median(Hit), Hit.size());
    O.metric("serve.hit_p90_ms", percentile(Hit, 90), Hit.size());
    O.metric("serve.roundtrip_ms", median(Roundtrip), Roundtrip.size(),
             "median inline stats round trip");
    if (Stats) {
      uint64_t ReplyHits = Stats->find("cache")->intOr("reply_hits", 0);
      O.metric("serve.reply_hit_ratio", ratioOf(*Stats, "reply_hits", Analyze),
               Analyze, "base: analyze requests");
      O.metric("serve.session_hit_ratio",
               ratioOf(*Stats, "session_hits", Analyze - ReplyHits),
               Analyze - ReplyHits, "base: requests past the reply cache");
      O.metric("serve.evictions",
               double(Stats->find("cache")->intOr("evictions", 0)), Analyze);
      O.metric("serve.queue_high_water",
               double(Stats->intOr("queue_high_water", 0)), Analyze);
    }
    replicaPhase(Opts, O, Logs, Programs, Configs);
    return O;
  }

  double Rps = double(All.size()) / (LoadMs / 1000.0);
  endToEndMetrics(O, SetupMs, Rss, Rps, All);
  O.named("setup_s", median(SetupMs) / 1000.0, "s", SetupMs.size(),
          "median spawn-to-ready of ipcp-serve");
  O.named("peak_rss_mb", PeakRss, "MB", 1, "VmHWM of ipcp-serve");
  O.named("fail_ratio", O.Attempted ? double(O.Failed) / O.Attempted : 0,
          "ratio", O.Attempted, "base: replies checked");
  O.named("serve_rps", Rps, "1/s", All.size(),
          std::to_string(Jobs) + " closed-loop clients");
  O.named("serve_cold_p50_ms", median(Cold), "ms", Cold.size());
  O.named("serve_cold_p99_ms", percentile(Cold, 99), "ms", Cold.size());
  O.named("serve_warm_p50_ms", median(Warm), "ms", Warm.size());
  O.named("serve_warm_p99_ms", percentile(Warm, 99), "ms", Warm.size());
  O.named("serve_hit_p50_ms", median(Hit), "ms", Hit.size());
  O.named("serve_hit_p90_ms", percentile(Hit, 90), "ms", Hit.size());
  O.named("serve_hit_evicted", double(EvictedHits), "count", Hit.size(),
          "hit-class requests recomputed after an LRU eviction");
  return O;
}
