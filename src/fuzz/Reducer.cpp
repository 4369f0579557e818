//===- fuzz/Reducer.cpp - Failing-program reduction -----------------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Reducer.h"

#include "fuzz/AstEdit.h"
#include "lang/Sema.h"
#include "support/Casting.h"

#include <string>
#include <vector>

using namespace ipcp;
using namespace ipcp::fuzz;

namespace {

/// State of one reduction run. Every pass generates candidates by
/// re-parsing Current, applying one edit, and printing; candidates that
/// are valid, smaller-or-different, and still failing become Current.
class Reduction {
public:
  Reduction(std::string_view Source, const ReducePredicate &StillFails,
            const ReduceOptions &Opts)
      : StillFails(StillFails), Opts(Opts) {
    Result.OriginalBytes = Source.size();
    std::optional<std::string> Norm = normalizeProgram(Source);
    if (!Norm) {
      Result.Source = std::string(Source);
      return;
    }
    Current = std::move(*Norm);
    Valid = true;
  }

  ReduceResult run() {
    if (!Valid)
      return std::move(Result);
    ++Result.ChecksRun;
    if (!StillFails(Current)) {
      finish();
      return std::move(Result);
    }
    Result.Reduced = true;
    bool Progress = true;
    while (Progress && budgetLeft()) {
      Progress = false;
      if (removeProcs())
        Progress = true;
      if (removeStmts())
        Progress = true;
      if (removeFormals())
        Progress = true;
      if (simplifyArgs())
        Progress = true;
      if (removeDecls())
        Progress = true;
    }
    finish();
    return std::move(Result);
  }

private:
  bool budgetLeft() const { return Result.ChecksRun < Opts.MaxChecks; }

  void finish() {
    Result.Source = Current;
    Result.ReducedBytes = Current.size();
  }

  /// Validates \p Printed and adopts it when the failure survives.
  bool tryAdopt(const std::string &Printed) {
    std::optional<std::string> Norm = normalizeProgram(Printed);
    if (!Norm || *Norm == Current || !budgetLeft())
      return false;
    ++Result.ChecksRun;
    if (!StillFails(*Norm))
      return false;
    Current = std::move(*Norm);
    ++Result.StepsAccepted;
    return true;
  }

  /// Pass 1: drop a whole procedure together with every call to it.
  bool removeProcs() {
    bool Any = false;
    bool Progress = true;
    while (Progress && budgetLeft()) {
      Progress = false;
      std::vector<std::string> Names;
      {
        auto Ctx = checkProgram(Current).Ctx;
        for (const auto &P : Ctx->program().Procs)
          if (P->name() != "main")
            Names.push_back(P->name());
      }
      for (const std::string &Name : Names) {
        if (!budgetLeft())
          break;
        auto Ctx = checkProgram(Current).Ctx;
        Program &Prog = Ctx->program();
        for (StmtListRef &L : collectStmtLists(Prog)) {
          std::vector<Stmt *> Kept;
          for (Stmt *S : L.Items) {
            auto *C = dyn_cast<CallStmt>(S);
            if (!C || C->calleeName() != Name)
              Kept.push_back(S);
          }
          if (Kept.size() != L.Items.size())
            L.Set(std::move(Kept));
        }
        for (size_t P = 0; P != Prog.Procs.size(); ++P)
          if (Prog.Procs[P]->name() == Name) {
            Prog.Procs.erase(Prog.Procs.begin() + P);
            break;
          }
        if (tryAdopt(printProgram(Prog))) {
          Any = Progress = true;
          break; // Names are stale; re-enumerate.
        }
      }
    }
    return Any;
  }

  /// Pass 2: drop single statements; for compound statements also try
  /// hoisting the body in place of the statement (keeps the interesting
  /// inner statements while shedding the control structure).
  bool removeStmts() {
    bool Any = false;
    bool Progress = true;
    while (Progress && budgetLeft()) {
      Progress = false;
      size_t NumLists;
      std::vector<size_t> ListSizes;
      {
        auto Ctx = checkProgram(Current).Ctx;
        auto Lists = collectStmtLists(Ctx->program());
        NumLists = Lists.size();
        for (const StmtListRef &L : Lists)
          ListSizes.push_back(L.Items.size());
      }
      for (size_t LI = 0; LI != NumLists && !Progress; ++LI) {
        for (size_t SI = ListSizes[LI]; SI-- > 0 && !Progress;) {
          if (!budgetLeft())
            return Any;
          // Deleting first; hoisting only if the delete did not stick.
          for (int Hoist = 0; Hoist != 2 && !Progress; ++Hoist) {
            auto Ctx = checkProgram(Current).Ctx;
            auto Lists = collectStmtLists(Ctx->program());
            std::vector<Stmt *> Items = Lists[LI].Items;
            Stmt *S = Items[SI];
            if (Hoist) {
              std::vector<Stmt *> Body;
              if (auto *If = dyn_cast<IfStmt>(S)) {
                Body = If->thenBody();
                Body.insert(Body.end(), If->elseBody().begin(),
                            If->elseBody().end());
              } else if (auto *Do = dyn_cast<DoLoopStmt>(S)) {
                Body = Do->body();
              } else if (auto *W = dyn_cast<WhileStmt>(S)) {
                Body = W->body();
              } else {
                continue;
              }
              if (Body.empty())
                continue;
              Items.erase(Items.begin() + SI);
              Items.insert(Items.begin() + SI, Body.begin(), Body.end());
            } else {
              Items.erase(Items.begin() + SI);
            }
            Lists[LI].Set(std::move(Items));
            if (tryAdopt(printProgram(Ctx->program())))
              Any = Progress = true; // Indices are stale; re-enumerate.
          }
        }
      }
    }
    return Any;
  }

  /// Pass 3: drop a formal parameter and the matching actual at every
  /// call site. Sema rejects the candidate if the body still reads the
  /// formal, so only genuinely removable parameters disappear.
  bool removeFormals() {
    bool Any = false;
    bool Progress = true;
    while (Progress && budgetLeft()) {
      Progress = false;
      std::vector<std::pair<std::string, size_t>> Targets;
      {
        auto Ctx = checkProgram(Current).Ctx;
        for (const auto &P : Ctx->program().Procs)
          if (P->name() != "main")
            for (size_t F = P->formals().size(); F-- > 0;)
              Targets.push_back({P->name(), F});
      }
      for (const auto &[Name, F] : Targets) {
        if (!budgetLeft())
          return Any;
        auto Ctx = checkProgram(Current).Ctx;
        Program &Prog = Ctx->program();
        auto Pid = Prog.findProc(Name);
        if (!Pid)
          continue;
        Proc &Old = *Prog.Procs[*Pid];
        std::vector<std::string> Formals = Old.formals();
        Formals.erase(Formals.begin() + F);
        auto New = std::make_unique<Proc>(Old.loc(), Name, std::move(Formals));
        New->Locals = Old.Locals;
        New->LocalArrays = Old.LocalArrays;
        New->Body = Old.Body;
        Prog.Procs[*Pid] = std::move(New);
        auto Lists = collectStmtLists(Prog);
        for (StmtListRef &L : Lists) {
          std::vector<Stmt *> Items = L.Items;
          bool Changed = false;
          for (size_t I = 0; I != Items.size(); ++I) {
            auto *C = dyn_cast<CallStmt>(Items[I]);
            if (!C || C->calleeName() != Name || F >= C->args().size())
              continue;
            std::vector<Expr *> Args = C->args();
            Args.erase(Args.begin() + F);
            Items[I] = Ctx->createStmt<CallStmt>(C->loc(), Name,
                                                 std::move(Args));
            Changed = true;
          }
          if (Changed)
            L.Set(std::move(Items));
        }
        if (tryAdopt(printProgram(Prog))) {
          Any = Progress = true;
          break;
        }
      }
    }
    return Any;
  }

  /// Pass 4: replace non-literal actuals with 0 — removes by-reference
  /// bindings and expression dependencies a failure may not need.
  bool simplifyArgs() {
    bool Any = false;
    bool Progress = true;
    while (Progress && budgetLeft()) {
      Progress = false;
      size_t NumCandidates;
      {
        auto Ctx = checkProgram(Current).Ctx;
        NumCandidates = countNonLitArgs(Ctx->program());
      }
      for (size_t N = 0; N != NumCandidates && !Progress; ++N) {
        if (!budgetLeft())
          return Any;
        auto Ctx = checkProgram(Current).Ctx;
        Program &Prog = Ctx->program();
        auto Lists = collectStmtLists(Prog);
        size_t Seen = 0;
        for (StmtListRef &L : Lists) {
          std::vector<Stmt *> Items = L.Items;
          bool Edited = false;
          for (size_t I = 0; I != Items.size() && !Edited; ++I) {
            auto *C = dyn_cast<CallStmt>(Items[I]);
            if (!C)
              continue;
            for (size_t A = 0; A != C->args().size(); ++A) {
              if (isa<IntLitExpr>(C->args()[A]))
                continue;
              if (Seen++ != N)
                continue;
              std::vector<Expr *> Args = C->args();
              Args[A] = Ctx->createExpr<IntLitExpr>(C->loc(), 0);
              Items[I] = Ctx->createStmt<CallStmt>(
                  C->loc(), C->calleeName(), std::move(Args));
              Edited = true;
              break;
            }
          }
          if (Edited) {
            L.Set(std::move(Items));
            if (tryAdopt(printProgram(Prog)))
              Any = Progress = true;
            break;
          }
        }
      }
    }
    return Any;
  }

  static size_t countNonLitArgs(Program &Prog) {
    size_t N = 0;
    for (StmtListRef &L : collectStmtLists(Prog))
      for (Stmt *S : L.Items)
        if (auto *C = dyn_cast<CallStmt>(S))
          for (Expr *A : C->args())
            if (!isa<IntLitExpr>(A))
              ++N;
    return N;
  }

  /// Pass 5: drop declarations — globals, global arrays, locals, local
  /// arrays. Sema rejects any candidate whose declaration is still used.
  bool removeDecls() {
    bool Any = false;
    bool Progress = true;
    while (Progress && budgetLeft()) {
      Progress = false;
      size_t NumCandidates;
      {
        auto Ctx = checkProgram(Current).Ctx;
        NumCandidates = countDecls(Ctx->program());
      }
      for (size_t N = 0; N != NumCandidates && !Progress; ++N) {
        if (!budgetLeft())
          return Any;
        auto Ctx = checkProgram(Current).Ctx;
        if (!eraseDecl(Ctx->program(), N))
          continue;
        if (tryAdopt(printProgram(Ctx->program())))
          Any = Progress = true;
      }
    }
    return Any;
  }

  static size_t countDecls(const Program &Prog) {
    size_t N = Prog.Globals.size() + Prog.GlobalArrays.size();
    for (const auto &P : Prog.Procs)
      N += P->Locals.size() + P->LocalArrays.size();
    return N;
  }

  /// Erases the \p N-th declaration in countDecls order.
  static bool eraseDecl(Program &Prog, size_t N) {
    if (N < Prog.Globals.size()) {
      Prog.Globals.erase(Prog.Globals.begin() + N);
      return true;
    }
    N -= Prog.Globals.size();
    if (N < Prog.GlobalArrays.size()) {
      Prog.GlobalArrays.erase(Prog.GlobalArrays.begin() + N);
      return true;
    }
    N -= Prog.GlobalArrays.size();
    for (const auto &P : Prog.Procs) {
      if (N < P->Locals.size()) {
        P->Locals.erase(P->Locals.begin() + N);
        return true;
      }
      N -= P->Locals.size();
      if (N < P->LocalArrays.size()) {
        P->LocalArrays.erase(P->LocalArrays.begin() + N);
        return true;
      }
      N -= P->LocalArrays.size();
    }
    return false;
  }

  const ReducePredicate &StillFails;
  const ReduceOptions &Opts;
  ReduceResult Result;
  std::string Current;
  bool Valid = false;
};

} // namespace

ReduceResult ipcp::reduceProgram(std::string_view Source,
                                 const ReducePredicate &StillFails,
                                 const ReduceOptions &Opts) {
  return Reduction(Source, StillFails, Opts).run();
}
