//===- lang/Sema.cpp - MiniFort semantic analysis -------------------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "lang/Sema.h"

#include "lang/Parser.h"

#include <cassert>
#include <string_view>
#include <unordered_map>

using namespace ipcp;

std::vector<SymbolId> SymbolTable::interproceduralParams(ProcId P) const {
  std::vector<SymbolId> Params = PerProc.at(P).Formals;
  Params.insert(Params.end(), GlobalIds.begin(), GlobalIds.end());
  return Params;
}

namespace ipcp {
namespace detail {

/// Walks one program binding names to symbols.
class SemaImpl {
public:
  SemaImpl(AstContext &Ctx, DiagnosticEngine &Diags)
      : Prog(Ctx.program()), Diags(Diags) {}

  SymbolTable run() {
    declareGlobals();
    declareProcs();
    for (ProcId P = 0, E = static_cast<ProcId>(Prog.Procs.size()); P != E;
         ++P)
      checkProcBody(P);
    checkEntry();
    return std::move(Table);
  }

private:
  void declareGlobals() {
    for (GlobalDecl &G : Prog.Globals) {
      if (GlobalScope.count(G.Name)) {
        Diags.error(G.Loc, "duplicate global '" + G.Name + "'");
        continue;
      }
      Symbol S;
      S.Kind = SymbolKind::Global;
      S.Name = G.Name;
      S.GlobalInit = G.Init;
      SymbolId Id = Table.addSymbol(std::move(S));
      Table.GlobalIds.push_back(Id);
      GlobalScope[G.Name] = Id;
      G.Symbol = Id;
    }
    for (ArrayDecl &A : Prog.GlobalArrays) {
      if (GlobalScope.count(A.Name)) {
        Diags.error(A.Loc, "duplicate global '" + A.Name + "'");
        continue;
      }
      if (A.Size <= 0)
        Diags.error(A.Loc, "array size must be positive");
      Symbol S;
      S.Kind = SymbolKind::GlobalArray;
      S.Name = A.Name;
      SymbolId Id = Table.addSymbol(std::move(S));
      Table.GlobalArrayIds.push_back(Id);
      GlobalScope[A.Name] = Id;
      A.Symbol = Id;
    }
  }

  void declareProcs() {
    // ProcIndex keeps the first occurrence of each name, matching
    // Program::findProc's first-match semantics; call resolution below
    // uses it instead of a per-call linear scan.
    for (ProcId P = 0, E = static_cast<ProcId>(Prog.Procs.size()); P != E;
         ++P) {
      Proc &Pr = *Prog.Procs[P];
      if (!ProcIndex.emplace(Pr.name(), P).second)
        Diags.error(Pr.loc(), "duplicate procedure '" + Pr.name() + "'");
      Table.PerProc.emplace_back();
      declareProcSymbols(P);
    }
  }

  void declareProcSymbols(ProcId P) {
    Proc &Pr = *Prog.Procs[P];
    auto &Scope = ProcScopes.emplace_back();

    auto declare = [&](const std::string &Name, SymbolKind Kind,
                       SourceLoc Loc, uint32_t FormalIndex) -> SymbolId {
      if (Scope.count(Name)) {
        Diags.error(Loc, "duplicate declaration of '" + Name +
                             "' in procedure '" + Pr.name() + "'");
        return InvalidSymbol;
      }
      if (GlobalScope.count(Name)) {
        Diags.error(Loc, "declaration of '" + Name +
                             "' shadows a global (not allowed)");
        return InvalidSymbol;
      }
      Symbol S;
      S.Kind = Kind;
      S.Name = Name;
      S.Owner = P;
      S.FormalIndex = FormalIndex;
      SymbolId Id = Table.addSymbol(std::move(S));
      Scope[Name] = Id;
      return Id;
    };

    for (uint32_t I = 0, E = static_cast<uint32_t>(Pr.formals().size());
         I != E; ++I) {
      SymbolId Id = declare(Pr.formals()[I], SymbolKind::Formal, Pr.loc(), I);
      Pr.FormalSymbols.push_back(Id);
      if (Id != InvalidSymbol)
        Table.PerProc[P].Formals.push_back(Id);
    }
    for (const std::string &Name : Pr.Locals) {
      SymbolId Id = declare(Name, SymbolKind::Local, Pr.loc(), 0);
      Pr.LocalSymbols.push_back(Id);
      if (Id != InvalidSymbol)
        Table.PerProc[P].Locals.push_back(Id);
    }
    for (ArrayDecl &A : Pr.LocalArrays) {
      if (A.Size <= 0)
        Diags.error(A.Loc, "array size must be positive");
      SymbolId Id = declare(A.Name, SymbolKind::LocalArray, A.Loc, 0);
      A.Symbol = Id;
      if (Id != InvalidSymbol)
        Table.PerProc[P].LocalArrays.push_back(Id);
    }
  }

  /// Looks up \p Name in \p P's scope, then the global scope. Returns
  /// InvalidSymbol (after diagnosing) if absent.
  SymbolId lookup(ProcId P, const std::string &Name, SourceLoc Loc) {
    auto &Scope = ProcScopes[P];
    if (auto It = Scope.find(Name); It != Scope.end())
      return It->second;
    if (auto It = GlobalScope.find(Name); It != GlobalScope.end())
      return It->second;
    Diags.error(Loc, "use of undeclared name '" + Name + "'");
    return InvalidSymbol;
  }

  void checkExpr(ProcId P, Expr *E) {
    switch (E->kind()) {
    case ExprKind::IntLit:
      return;
    case ExprKind::VarRef: {
      auto *V = cast<VarRefExpr>(E);
      SymbolId Id = lookup(P, V->name(), V->loc());
      if (Id != InvalidSymbol && !Table.symbol(Id).isScalar()) {
        Diags.error(V->loc(),
                    "'" + V->name() + "' is an array; subscript required");
        Id = InvalidSymbol;
      }
      V->setSymbol(Id);
      return;
    }
    case ExprKind::ArrayRef: {
      auto *A = cast<ArrayRefExpr>(E);
      SymbolId Id = lookup(P, A->name(), A->loc());
      if (Id != InvalidSymbol && !Table.symbol(Id).isArray()) {
        Diags.error(A->loc(),
                    "'" + A->name() + "' is a scalar; cannot subscript");
        Id = InvalidSymbol;
      }
      A->setSymbol(Id);
      checkExpr(P, A->index());
      return;
    }
    case ExprKind::Unary:
      checkExpr(P, cast<UnaryExpr>(E)->operand());
      return;
    case ExprKind::Binary: {
      auto *B = cast<BinaryExpr>(E);
      checkExpr(P, B->lhs());
      checkExpr(P, B->rhs());
      return;
    }
    }
  }

  void checkStmts(ProcId P, const std::vector<Stmt *> &Stmts) {
    for (Stmt *S : Stmts)
      checkStmt(P, S);
  }

  void checkStmt(ProcId P, Stmt *S) {
    switch (S->kind()) {
    case StmtKind::Assign: {
      auto *A = cast<AssignStmt>(S);
      checkExpr(P, A->target());
      checkExpr(P, A->value());
      return;
    }
    case StmtKind::Call: {
      auto *C = cast<CallStmt>(S);
      std::optional<ProcId> Callee;
      if (auto It = ProcIndex.find(C->calleeName()); It != ProcIndex.end())
        Callee = It->second;
      if (!Callee) {
        Diags.error(C->loc(),
                    "call to unknown procedure '" + C->calleeName() + "'");
      } else {
        C->setCallee(*Callee);
        size_t Expected = Prog.Procs[*Callee]->formals().size();
        if (C->args().size() != Expected)
          Diags.error(C->loc(), "call to '" + C->calleeName() + "' passes " +
                                    std::to_string(C->args().size()) +
                                    " arguments; expected " +
                                    std::to_string(Expected));
      }
      for (Expr *Arg : C->args())
        checkExpr(P, Arg);
      return;
    }
    case StmtKind::If: {
      auto *I = cast<IfStmt>(S);
      checkExpr(P, I->cond());
      checkStmts(P, I->thenBody());
      checkStmts(P, I->elseBody());
      return;
    }
    case StmtKind::DoLoop: {
      auto *D = cast<DoLoopStmt>(S);
      checkExpr(P, D->var());
      checkExpr(P, D->lo());
      checkExpr(P, D->hi());
      if (D->step())
        checkExpr(P, D->step());
      checkStmts(P, D->body());
      return;
    }
    case StmtKind::While: {
      auto *W = cast<WhileStmt>(S);
      checkExpr(P, W->cond());
      checkStmts(P, W->body());
      return;
    }
    case StmtKind::Print:
      checkExpr(P, cast<PrintStmt>(S)->value());
      return;
    case StmtKind::Read:
      checkExpr(P, cast<ReadStmt>(S)->target());
      return;
    case StmtKind::Return:
      return;
    }
  }

  void checkProcBody(ProcId P) { checkStmts(P, Prog.Procs[P]->Body); }

  void checkEntry() {
    auto Entry = Prog.entryProc();
    if (!Entry) {
      Diags.error(SourceLoc(1, 1), "program has no 'main' procedure");
      return;
    }
    if (!Prog.Procs[*Entry]->formals().empty())
      Diags.error(Prog.Procs[*Entry]->loc(),
                  "'main' must take no parameters");
  }

  Program &Prog;
  DiagnosticEngine &Diags;
  SymbolTable Table;
  // Scope and procedure maps key by views into names the Program owns
  // (declarations and procedure names), which outlive this walk.
  std::unordered_map<std::string_view, SymbolId> GlobalScope;
  std::vector<std::unordered_map<std::string_view, SymbolId>> ProcScopes;
  std::unordered_map<std::string_view, ProcId> ProcIndex;
};

} // namespace detail
} // namespace ipcp

SymbolTable Sema::run(AstContext &Ctx, DiagnosticEngine &Diags) {
  detail::SemaImpl Impl(Ctx, Diags);
  return Impl.run();
}

CheckedProgram ipcp::checkProgram(std::string_view Source) {
  CheckedProgram P;
  DiagnosticEngine Diags;
  P.Ctx = parseProgram(Source, Diags);
  if (!Diags.hasErrors())
    P.Symbols = Sema::run(*P.Ctx, Diags);
  if (Diags.hasErrors()) {
    P.Ctx.reset();
    P.Error = Diags.str();
  }
  return P;
}
