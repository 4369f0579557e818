//===- perfbench/src/Replica.cpp - Traced pipeline reassembly -------------===//

#include "Replica.h"

#include "analysis/DeadCodeElim.h"
#include "ipcp/JumpFunctionBuilder.h"
#include "ipcp/Solver.h"
#include "ipcp/Substitution.h"
#include "lang/Lexer.h"
#include "lang/Parser.h"

using namespace ipcp;
using namespace perfbench;

Frontend perfbench::replicaFrontend(std::string_view Source, Trace *T) {
  Frontend F;
  DiagnosticEngine Diags;
  {
    Span S(T, "lang.parse");
    F.Ctx = parseProgram(Source, Diags);
  }
  if (T) {
    Span S(T, "measure.lex");
    DiagnosticEngine LexDiags;
    F.Tokens = Lexer(Source, LexDiags).lexAll().size();
  }
  if (!Diags.hasErrors()) {
    Span S(T, "lang.sema");
    F.Symbols = Sema::run(*F.Ctx, Diags);
  }
  if (Diags.hasErrors())
    F.Error = Diags.str();
  return F;
}

Answer perfbench::answerOf(const PipelineResult &R) {
  Answer A;
  A.Ok = R.Ok;
  A.Error = R.Error;
  A.Substituted = R.SubstitutedConstants;
  A.Constants = R.Constants;
  A.JfEvaluations = R.SolverJfEvaluations;
  return A;
}

Answer perfbench::replicaPipeline(AnalysisSession &Session,
                                  const PipelineOptions &Opts, Trace *T,
                                  size_t *Instrs) {
  Answer A;
  const SymbolTable &Symbols = Session.symbols();
  const Program &Prog = Session.ast().program();
  if (!Prog.entryProc()) {
    A.Error = "program has no 'main' procedure";
    return A;
  }
  A.Constants.resize(Prog.Procs.size());

  for (unsigned Round = 0;; ++Round) {
    if (Round > Opts.MaxDceRounds) {
      A.Error = "complete propagation did not converge";
      return A;
    }
    const Module *M;
    {
      Span S(T, "ir.lower");
      M = &Session.module();
    }
    if (Instrs && Round == 0) {
      *Instrs = 0;
      for (const auto &F : M->Functions)
        *Instrs += F->numInstrs();
    }
    const CallGraph *CG;
    {
      Span S(T, "analysis.callgraph");
      CG = &Session.callGraph();
    }
    const ModRefInfo *MRI;
    {
      Span S(T, "analysis.modref");
      MRI = Session.modRef(Opts.UseMod);
    }
    const RefAliasInfo *Aliases;
    const FlowAliasInfo *FlowAliases = nullptr;
    {
      Span S(T, "analysis.alias");
      Aliases = &Session.refAlias(Opts.UseMod);
      if (Opts.FlowSensitiveAlias)
        FlowAliases = &Session.flowAlias(Opts.UseMod);
    }
    const CopyPropInfo *CopyFacts = nullptr;
    if (Opts.CopyPropagation) {
      Span S(T, "analysis.copyprop");
      CopyFacts = &Session.copyProp(Opts.UseMod);
    }
    {
      // Exactly the procedures the jump-function and substitution passes
      // ask the session for, so later calls find them built.
      Span S(T, "ir.ssa");
      for (ProcId P : CG->topDownOrder())
        Session.ssa(P, Opts.UseMod);
    }

    ProgramJumpFunctions Jfs;
    SolveResult Solve;
    if (!Opts.IntraproceduralOnly) {
      JumpFunctionOptions JfOpts;
      JfOpts.Kind = Opts.Kind;
      JfOpts.UseReturnJumpFunctions = Opts.UseReturnJumpFunctions;
      JfOpts.UseMod = Opts.UseMod;
      JfOpts.UseGatedSsa = Opts.UseGatedSsa;
      JfOpts.FlowSensitiveAlias = Opts.FlowSensitiveAlias;
      JfOpts.OptimisticVn = Opts.OptimisticVn;
      JfOpts.CopyPropagation = Opts.CopyPropagation;
      {
        Span S(T, "ipcp.jf");
        Jfs = buildJumpFunctions(*M, Symbols, *CG, MRI, JfOpts, Aliases,
                                 nullptr, &Session, FlowAliases, CopyFacts);
      }
      Span S(T, "ipcp.solve");
      Solve = solveConstants(Symbols, *CG, Jfs, Opts.Strategy, nullptr,
                             nullptr, &Session.solverMemo());
    }
    SubstitutionResult Subs;
    {
      Span S(T, "ipcp.substitute");
      Subs = countSubstitutions(
          *M, Symbols, *CG, Opts.IntraproceduralOnly ? nullptr : &Solve, MRI,
          Opts.IntraproceduralOnly || !Opts.UseReturnJumpFunctions ? nullptr
                                                                   : &Jfs,
          Aliases, nullptr, &Session, FlowAliases, CopyFacts);
    }
    if (Opts.CompletePropagation && !Subs.Branches.empty()) {
      Span S(T, "ipcp.dce");
      std::vector<ProcId> Dirty;
      if (DeadCodeElim::run(Session.ast(), Subs.Branches, &Dirty) != 0) {
        Session.invalidate(Dirty);
        continue;
      }
    }

    A.Ok = true;
    A.Substituted = Subs.Total;
    A.JfEvaluations = Solve.JfEvaluations;
    if (!Opts.IntraproceduralOnly)
      for (ProcId P = 0, E = static_cast<ProcId>(Prog.Procs.size()); P != E;
           ++P)
        if (CG->isReachable(P))
          for (auto [Sym, Value] : Solve.constants(P))
            A.Constants[P].push_back({Symbols.symbol(Sym).Name, Value});
    return A;
  }
}

std::string perfbench::disagreement(const Answer &Replica,
                                    const Answer &Untraced) {
  if (Replica.Ok != Untraced.Ok)
    return "replica ok=" + std::to_string(Replica.Ok) +
           " untraced ok=" + std::to_string(Untraced.Ok) + " (" +
           Replica.Error + Untraced.Error + ")";
  if (Replica.Substituted != Untraced.Substituted)
    return "substituted " + std::to_string(Replica.Substituted) + " vs " +
           std::to_string(Untraced.Substituted);
  if (Replica.Constants != Untraced.Constants)
    return "CONSTANTS sets differ";
  return "";
}

void perfbench::accumulate(SessionStats &Sum, const SessionStats &S) {
  Sum.ProcsLowered += S.ProcsLowered;
  Sum.ProcsRelowered += S.ProcsRelowered;
  Sum.SsaBuilt += S.SsaBuilt;
  Sum.SsaReused += S.SsaReused;
  Sum.VnBuilt += S.VnBuilt;
  Sum.VnReused += S.VnReused;
  Sum.JfBasesBuilt += S.JfBasesBuilt;
  Sum.JfBasesReused += S.JfBasesReused;
  Sum.SolverMemoHits += S.SolverMemoHits;
  Sum.SolverMemoMisses += S.SolverMemoMisses;
}

void perfbench::reuseMetrics(Outcome &O, const SessionStats &S) {
  auto Ratio = [&O](const char *Name, uint64_t Hits, uint64_t Misses,
                    const char *Base) {
    uint64_t Total = Hits + Misses;
    O.metric(Name, Total ? double(Hits) / double(Total) : 0, Total,
             std::string("base: ") + Base);
  };
  Ratio("ipcp.memo_hit_ratio", S.SolverMemoHits, S.SolverMemoMisses,
        "value-context lookups");
  Ratio("ipcp.ssa_reuse_ratio", S.SsaReused, S.SsaBuilt, "ssa() calls");
  Ratio("ipcp.vn_reuse_ratio", S.VnReused, S.VnBuilt,
        "value numberings used");
  Ratio("ipcp.jf_base_reuse_ratio", S.JfBasesReused, S.JfBasesBuilt,
        "jfBase() calls");
}

void perfbench::perOp(Outcome &O, const Trace &T, const char *Metric,
                      uint64_t Ops, std::initializer_list<const char *> Spans) {
  double Ms = 0;
  uint64_t Calls = 0;
  for (const char *S : Spans) {
    Ms += T.ms(S);
    Calls += T.calls(S);
  }
  O.metric(Metric, Ops ? Ms / double(Ops) : 0, Calls,
           "self ms per operation over " + std::to_string(Ops) + " ops");
}

void perfbench::layerMetrics(Outcome &O, const Trace &T, uint64_t Ops,
                             uint64_t Tokens) {
  perOp(O, T, "lang.parse_ms", Ops, {"lang.parse"});
  perOp(O, T, "lang.sema_ms", Ops, {"lang.sema"});
  double ParseS = T.ms("lang.parse") / 1000.0;
  O.metric("lang.tokens_per_s", ParseS > 0 ? double(Tokens) / ParseS : 0,
           Tokens, "base: tokens lexed");
  perOp(O, T, "ir.lower_ms", Ops, {"ir.lower"});
  perOp(O, T, "ir.ssa_ms", Ops, {"ir.ssa"});
  perOp(O, T, "analysis.callgraph_ms", Ops, {"analysis.callgraph"});
  perOp(O, T, "analysis.modref_ms", Ops, {"analysis.modref"});
  perOp(O, T, "analysis.alias_ms", Ops, {"analysis.alias"});
  perOp(O, T, "analysis.copyprop_ms", Ops, {"analysis.copyprop"});
  perOp(O, T, "ipcp.jf_ms", Ops, {"ipcp.jf"});
  perOp(O, T, "ipcp.solve_ms", Ops, {"ipcp.solve"});
  perOp(O, T, "ipcp.substitute_ms", Ops, {"ipcp.substitute"});
  perOp(O, T, "ipcp.dce_ms", Ops, {"ipcp.dce"});
  perOp(O, T, "ipcp.teardown_ms", Ops, {"ipcp.teardown"});
}

void perfbench::traceMetrics(Outcome &O, const Trace &T, double WallMs) {
  double Spanned = T.totalMs();
  O.metric("trace.coverage", WallMs > 0 ? Spanned / WallMs : 0, 0,
           "leaf-span ms / traced wall ms");
  double Layers = 0;
  for (const char *S :
       {"lang.parse", "lang.sema", "lang.clone", "ipcp.session", "ir.lower",
        "ir.ssa", "analysis.callgraph", "analysis.modref", "analysis.alias",
        "analysis.copyprop", "ipcp.jf", "ipcp.solve", "ipcp.substitute",
        "ipcp.dce", "ipcp.teardown"})
    Layers += T.ms(S);
  double Ref = T.ms("ref.untraced");
  O.metric("trace.gap_ratio", Ref > 0 ? Layers / Ref - 1 : 0,
           T.calls("ref.untraced"),
           "traced replica ms / untraced ms on the same inputs, minus 1");
}
