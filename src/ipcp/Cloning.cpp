//===- ipcp/Cloning.cpp - Constant-directed procedure cloning -------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "ipcp/Cloning.h"

#include "ipcp/AnalysisSession.h"
#include "ipcp/Solver.h"
#include "lang/AstClone.h"
#include "lang/AstPrinter.h"

#include <map>
#include <sstream>

using namespace ipcp;

namespace {

/// One analysis round: returns true if any clone was made, leaving the
/// transformed source in \p Source.
bool cloneRound(std::string &Source, unsigned &ClonesCreated,
                unsigned MaxClones, std::string &Error, int &NameCounter) {
  CheckedProgram Checked = checkProgram(Source);
  if (!Checked.ok()) {
    Error = std::move(Checked.Error);
    return false;
  }

  AstContext &Ctx = *Checked.Ctx;
  const SymbolTable &Symbols = Checked.Symbols;
  Program &Prog = Ctx.program();
  // The session only reads the program: clones are appended after the
  // last analysis query below.
  AnalysisSession Session(Ctx, Symbols);
  const Module &M = Session.module();
  const CallGraph &CG = Session.callGraph();
  ProgramJumpFunctions Jfs =
      buildJumpFunctions(Session, JumpFunctionOptions());
  SolveResult Solve = solveConstants(Symbols, CG, Jfs);

  // Per procedure: the constant-vector signature each call site
  // delivers on the cloneable formals.
  struct SiteInfo {
    StmtId Stmt;            // The AST call statement to retarget.
    std::string Signature;  // Rendered constant vector.
  };

  bool AnyClone = false;
  // Procedures are processed in id order; clones are appended to the
  // program after the loop (ids stay stable during it).
  size_t OriginalProcCount = Prog.Procs.size();
  std::unordered_map<StmtId, std::string> Retarget;
  std::vector<std::unique_ptr<Proc>> NewProcs;

  for (ProcId P = 0; P != OriginalProcCount; ++P) {
    if (!CG.isReachable(P) || P == *Prog.entryProc())
      continue;
    const auto &Formals = Symbols.formals(P);
    if (Formals.empty())
      continue;

    // Cloneable formals: merged to BOTTOM though every edge delivers a
    // constant, with at least two distinct values.
    const auto &InEdges = CG.callSitesOf(P);
    if (InEdges.size() < 2)
      continue;

    // Evaluate every edge's jump functions once.
    struct EdgeValues {
      const CallSite *Site;
      std::vector<LatticeValue> PerFormal;
    };
    std::vector<EdgeValues> Edges;
    bool Recursive = CG.isRecursive(P);
    if (Recursive)
      continue; // Cloning a cycle would unroll it; skip.
    for (const CallSite &S : InEdges) {
      // Unreachable callers have no jump functions; their calls never
      // execute, so they impose no constraint on the signature split.
      if (!CG.isReachable(S.Caller))
        continue;
      // Locate the site's jump functions.
      const auto &Sites = CG.callSitesIn(S.Caller);
      const CallSiteJumpFunctions *SiteJfs = nullptr;
      for (size_t I = 0; I != Sites.size(); ++I)
        if (Sites[I].Block == S.Block && Sites[I].InstrIdx == S.InstrIdx &&
            Sites[I].Callee == P)
          SiteJfs = &Jfs.PerSite[S.Caller][I];
      if (!SiteJfs)
        continue;
      EdgeValues EV;
      EV.Site = &S;
      auto Env = [&](SymbolId Sym) { return Solve.valueOf(S.Caller, Sym); };
      for (uint32_t A = 0; A != Formals.size(); ++A)
        EV.PerFormal.push_back(SiteJfs->Args[A].eval(Env));
      Edges.push_back(std::move(EV));
    }

    std::vector<uint32_t> Cloneable;
    for (uint32_t A = 0; A != Formals.size(); ++A) {
      if (!Solve.valueOf(P, Formals[A]).isBottom())
        continue;
      bool AllConst = !Edges.empty();
      std::map<int64_t, unsigned> Values;
      for (const EdgeValues &EV : Edges) {
        if (!EV.PerFormal[A].isConst()) {
          AllConst = false;
          break;
        }
        ++Values[EV.PerFormal[A].value()];
      }
      if (AllConst && Values.size() >= 2)
        Cloneable.push_back(A);
    }
    if (Cloneable.empty())
      continue;

    // Partition call sites by signature over the cloneable formals.
    std::map<std::string, std::vector<const CallSite *>> Groups;
    for (const EdgeValues &EV : Edges) {
      std::string Sig;
      for (uint32_t A : Cloneable)
        Sig += std::to_string(EV.PerFormal[A].value()) + ",";
      Groups[Sig].push_back(EV.Site);
    }
    if (Groups.size() < 2)
      continue;

    // The first group keeps the original; each further group gets a
    // clone.
    bool First = true;
    for (const auto &[Sig, Sites] : Groups) {
      if (First) {
        First = false;
        continue;
      }
      if (ClonesCreated >= MaxClones)
        break;
      const Proc &Orig = *Prog.Procs[P];
      std::string CloneName =
          Orig.name() + "__c" + std::to_string(++NameCounter);
      auto Clone = std::make_unique<Proc>(Orig.loc(), CloneName,
                                          Orig.formals());
      Clone->Locals = Orig.Locals;
      Clone->LocalArrays = Orig.LocalArrays;
      for (ArrayDecl &A : Clone->LocalArrays)
        A.Symbol = InvalidSymbol; // Re-resolved by the next round's Sema.
      Clone->Body = cloneStmts(Ctx, Orig.Body, NameSubst());
      NewProcs.push_back(std::move(Clone));
      ++ClonesCreated;
      AnyClone = true;

      for (const CallSite *S : Sites) {
        const Instr &Call =
            M.function(S->Caller).block(S->Block).Instrs[S->InstrIdx];
        Retarget[Call.SourceStmt] = CloneName;
      }
    }
  }

  if (!AnyClone)
    return false;

  // Retarget the chosen call statements, then append the clones.
  struct Rewriter {
    const std::unordered_map<StmtId, std::string> &Retarget;
    void walk(const std::vector<Stmt *> &Stmts) {
      for (Stmt *S : Stmts) {
        switch (S->kind()) {
        case StmtKind::Call: {
          auto It = Retarget.find(S->id());
          if (It != Retarget.end())
            cast<CallStmt>(S)->setCalleeName(It->second);
          break;
        }
        case StmtKind::If:
          walk(cast<IfStmt>(S)->thenBody());
          walk(cast<IfStmt>(S)->elseBody());
          break;
        case StmtKind::While:
          walk(cast<WhileStmt>(S)->body());
          break;
        case StmtKind::DoLoop:
          walk(cast<DoLoopStmt>(S)->body());
          break;
        default:
          break;
        }
      }
    }
  };
  Rewriter RW{Retarget};
  for (auto &P : Prog.Procs)
    RW.walk(P->Body);
  for (auto &Clone : NewProcs)
    Prog.Procs.push_back(std::move(Clone));

  AstPrinter Printer;
  Source = Printer.programToString(Prog);
  return true;
}

} // namespace

CloneResult ipcp::cloneForConstants(std::string_view Source,
                                    const CloneOptions &Opts) {
  CloneResult Result;
  Result.Source = std::string(Source);
  int NameCounter = 0;
  for (unsigned Round = 0; Round != Opts.MaxRounds; ++Round) {
    std::string Error;
    if (!cloneRound(Result.Source, Result.ClonesCreated, Opts.MaxClones,
                    Error, NameCounter)) {
      if (!Error.empty()) {
        Result.Error = std::move(Error);
        return Result;
      }
      break; // Fixed point.
    }
    ++Result.Rounds;
    if (Result.ClonesCreated >= Opts.MaxClones)
      break;
  }
  Result.Ok = true;
  return Result;
}
