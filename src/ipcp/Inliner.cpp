//===- ipcp/Inliner.cpp - Procedure integration ---------------------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "ipcp/Inliner.h"

#include "analysis/CallGraph.h"
#include "ir/CfgBuilder.h"
#include "lang/AstPrinter.h"

#include <cassert>
#include <sstream>
#include <unordered_map>

using namespace ipcp;

namespace {

/// True if any statement (recursively) is an early return.
bool containsReturn(const std::vector<Stmt *> &Stmts) {
  for (const Stmt *S : Stmts) {
    switch (S->kind()) {
    case StmtKind::Return:
      return true;
    case StmtKind::If: {
      const auto *I = cast<IfStmt>(S);
      if (containsReturn(I->thenBody()) || containsReturn(I->elseBody()))
        return true;
      break;
    }
    case StmtKind::While:
      if (containsReturn(cast<WhileStmt>(S)->body()))
        return true;
      break;
    case StmtKind::DoLoop:
      if (containsReturn(cast<DoLoopStmt>(S)->body()))
        return true;
      break;
    default:
      break;
    }
  }
  return false;
}

/// One procedure after integration: its (possibly spliced) body plus the
/// scalar/array locals accumulated from inlined callees.
struct IntegratedProc {
  std::vector<Stmt *> Body;
  std::vector<std::string> ExtraLocals;
  std::vector<std::pair<std::string, int64_t>> ExtraArrays;
  bool HasReturn = false;
};

class Inliner {
public:
  Inliner(const AstContext &Ctx, const SymbolTable &Symbols,
          const InlineOptions &Opts)
      : Prog(Ctx.program()), Symbols(Symbols), Opts(Opts) {}

  InlineResult run();

private:
  using NameMap = std::unordered_map<std::string, std::string>;

  /// Charges \p Name, about to be emitted, against the budget: one unit
  /// per started NameBytesPerUnit bytes.
  const std::string &charge(const std::string &Name) {
    Emitted += (Name.size() + NameBytesPerUnit - 1) / NameBytesPerUnit;
    return Name;
  }

  std::string freshName(const std::string &Base) {
    return charge(Base + "__i" + std::to_string(++Counter));
  }

  std::string substName(const NameMap &Subst, const std::string &Name) {
    auto It = Subst.find(Name);
    return charge(It == Subst.end() ? Name : It->second);
  }

  Expr *cloneExpr(const Expr *E, const NameMap &Subst);
  VarRefExpr *cloneVarRef(const VarRefExpr *V, const NameMap &Subst);
  std::vector<Stmt *> cloneStmts(ProcId Host, const std::vector<Stmt *> &In,
                                 const NameMap &Subst);
  Stmt *cloneStmt(ProcId Host, const Stmt *S, const NameMap &Subst);

  /// Splices the integrated body of \p Callee in place of a call with
  /// (already-cloned) argument expressions \p Args, appending statements
  /// to \p Out.
  void spliceCall(ProcId Host, ProcId Callee, std::vector<Expr *> Args,
                  std::vector<Stmt *> &Out);

  bool shouldInline(ProcId Callee) const {
    return Done.at(Callee) && !Recursive.at(Callee) &&
           !Integrated.at(Callee).HasReturn && !BudgetExhausted;
  }

  const Program &Prog;
  const SymbolTable &Symbols;
  InlineOptions Opts;
  AstContext Work; ///< Owns every cloned node.
  std::vector<IntegratedProc> Integrated;
  std::vector<uint8_t> Recursive;
  std::vector<uint8_t> Done; ///< Procedure already integrated.
  static constexpr size_t NameBytesPerUnit = 16;
  /// Budget units emitted so far (see InlineOptions::MaxProgramStmts).
  size_t Emitted = 0;
  bool BudgetExhausted = false;
  int Counter = 0;
  InlineResult Result;
};

VarRefExpr *Inliner::cloneVarRef(const VarRefExpr *V, const NameMap &Subst) {
  return Work.createExpr<VarRefExpr>(V->loc(), substName(Subst, V->name()));
}

Expr *Inliner::cloneExpr(const Expr *E, const NameMap &Subst) {
  switch (E->kind()) {
  case ExprKind::IntLit:
    return Work.createExpr<IntLitExpr>(E->loc(),
                                       cast<IntLitExpr>(E)->value());
  case ExprKind::VarRef:
    return cloneVarRef(cast<VarRefExpr>(E), Subst);
  case ExprKind::ArrayRef: {
    const auto *A = cast<ArrayRefExpr>(E);
    return Work.createExpr<ArrayRefExpr>(A->loc(),
                                         substName(Subst, A->name()),
                                         cloneExpr(A->index(), Subst));
  }
  case ExprKind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    return Work.createExpr<UnaryExpr>(U->loc(), U->op(),
                                      cloneExpr(U->operand(), Subst));
  }
  case ExprKind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    return Work.createExpr<BinaryExpr>(B->loc(), B->op(),
                                       cloneExpr(B->lhs(), Subst),
                                       cloneExpr(B->rhs(), Subst));
  }
  }
  assert(false && "unknown expression kind");
  return nullptr;
}

void Inliner::spliceCall(ProcId Host, ProcId Callee,
                         std::vector<Expr *> Args,
                         std::vector<Stmt *> &Out) {
  ++Result.InlinedCalls;
  const Proc &CalleeProc = *Prog.Procs[Callee];
  const IntegratedProc &Body = Integrated[Callee];

  // Build the splice substitution: formals bind to variable actuals by
  // name (by-reference) or to fresh by-value temporaries; every
  // callee-local name gets a fresh identity.
  NameMap Subst;
  for (size_t I = 0; I != CalleeProc.formals().size(); ++I) {
    Expr *Actual = Args[I];
    if (auto *V = dyn_cast<VarRefExpr>(Actual)) {
      Subst[CalleeProc.formals()[I]] = V->name();
      continue;
    }
    // By-value: t = <actual>; formal -> t.
    std::string Temp = freshName(CalleeProc.formals()[I]);
    Integrated[Host].ExtraLocals.push_back(Temp);
    auto *Target = Work.createExpr<VarRefExpr>(Actual->loc(), Temp);
    Out.push_back(Work.createStmt<AssignStmt>(Actual->loc(), Target,
                                              Actual));
    ++Emitted;
    Subst[CalleeProc.formals()[I]] = Temp;
  }
  for (const std::string &Local : CalleeProc.Locals) {
    std::string Fresh = freshName(Local);
    Subst[Local] = Fresh;
    Integrated[Host].ExtraLocals.push_back(Fresh);
  }
  for (const std::string &Local : Body.ExtraLocals) {
    std::string Fresh = freshName(Local);
    Subst[Local] = Fresh;
    Integrated[Host].ExtraLocals.push_back(Fresh);
  }
  for (const ArrayDecl &A : CalleeProc.LocalArrays) {
    std::string Fresh = freshName(A.Name);
    Subst[A.Name] = Fresh;
    Integrated[Host].ExtraArrays.push_back({Fresh, A.Size});
  }
  for (const auto &[Name, Size] : Body.ExtraArrays) {
    std::string Fresh = freshName(Name);
    Subst[Name] = Fresh;
    Integrated[Host].ExtraArrays.push_back({Fresh, Size});
  }

  for (Stmt *S : cloneStmts(Host, Body.Body, Subst))
    Out.push_back(S);
}

std::vector<Stmt *> Inliner::cloneStmts(ProcId Host,
                                        const std::vector<Stmt *> &In,
                                        const NameMap &Subst) {
  std::vector<Stmt *> Out;
  for (const Stmt *S : In) {
    if (S->kind() == StmtKind::Call) {
      const auto *C = cast<CallStmt>(S);
      std::vector<Expr *> Args;
      for (const Expr *Arg : C->args())
        Args.push_back(cloneExpr(Arg, Subst));
      if (Emitted >= Opts.MaxProgramStmts)
        BudgetExhausted = true;
      if (shouldInline(C->callee())) {
        spliceCall(Host, C->callee(), std::move(Args), Out);
        continue;
      }
      if (Recursive.at(C->callee()))
        ++Result.SkippedRecursive;
      else if (Integrated.at(C->callee()).HasReturn)
        ++Result.SkippedHasReturn;
      else
        ++Result.SkippedBudget;
      auto *Kept = Work.createStmt<CallStmt>(C->loc(), C->calleeName(),
                                             std::move(Args));
      // The clone must stay resolved: an integrated body containing a
      // skipped call is itself spliced into callers, and that second
      // cloneStmts pass indexes Recursive/Integrated by callee() again.
      Kept->setCallee(C->callee());
      Out.push_back(Kept);
      ++Emitted;
      continue;
    }
    Out.push_back(cloneStmt(Host, S, Subst));
  }
  return Out;
}

Stmt *Inliner::cloneStmt(ProcId Host, const Stmt *S, const NameMap &Subst) {
  ++Emitted;
  switch (S->kind()) {
  case StmtKind::Assign: {
    const auto *A = cast<AssignStmt>(S);
    return Work.createStmt<AssignStmt>(A->loc(),
                                       cloneExpr(A->target(), Subst),
                                       cloneExpr(A->value(), Subst));
  }
  case StmtKind::If: {
    const auto *I = cast<IfStmt>(S);
    return Work.createStmt<IfStmt>(I->loc(), cloneExpr(I->cond(), Subst),
                                   cloneStmts(Host, I->thenBody(), Subst),
                                   cloneStmts(Host, I->elseBody(), Subst));
  }
  case StmtKind::While: {
    const auto *W = cast<WhileStmt>(S);
    return Work.createStmt<WhileStmt>(W->loc(),
                                      cloneExpr(W->cond(), Subst),
                                      cloneStmts(Host, W->body(), Subst));
  }
  case StmtKind::DoLoop: {
    const auto *D = cast<DoLoopStmt>(S);
    return Work.createStmt<DoLoopStmt>(
        D->loc(), cloneVarRef(D->var(), Subst), cloneExpr(D->lo(), Subst),
        cloneExpr(D->hi(), Subst),
        D->step() ? cloneExpr(D->step(), Subst) : nullptr,
        cloneStmts(Host, D->body(), Subst));
  }
  case StmtKind::Print:
    return Work.createStmt<PrintStmt>(
        S->loc(), cloneExpr(cast<PrintStmt>(S)->value(), Subst));
  case StmtKind::Read:
    return Work.createStmt<ReadStmt>(
        S->loc(), cloneVarRef(cast<ReadStmt>(S)->target(), Subst));
  case StmtKind::Return:
    return Work.createStmt<ReturnStmt>(S->loc());
  case StmtKind::Call:
    assert(false && "calls handled by cloneStmts");
    return nullptr;
  }
  assert(false && "unknown statement kind");
  return nullptr;
}

InlineResult Inliner::run() {
  // Recursion facts come from the lowered call graph.
  Module M = buildModule(Prog, Symbols);
  CallGraph CG(M, Prog.entryProc().value_or(0));
  Recursive.assign(Prog.Procs.size(), 0);
  for (ProcId P = 0; P != Prog.Procs.size(); ++P)
    Recursive[P] = CG.isRecursive(P);

  Integrated.resize(Prog.Procs.size());
  for (ProcId P = 0; P != Prog.Procs.size(); ++P)
    Integrated[P].HasReturn = containsReturn(Prog.Procs[P]->Body);

  // Integrate bottom-up so every callee body is already fully inlined
  // when its callers splice it; unreachable procedures are integrated
  // afterwards (splicing only already-integrated callees).
  Done.assign(Prog.Procs.size(), 0);
  for (ProcId P : CG.bottomUpOrder()) {
    Integrated[P].Body = cloneStmts(P, Prog.Procs[P]->Body, NameMap());
    Done[P] = 1;
  }
  for (ProcId P = 0; P != Prog.Procs.size(); ++P)
    if (!Done[P]) {
      Integrated[P].Body = cloneStmts(P, Prog.Procs[P]->Body, NameMap());
      Done[P] = 1;
    }

  // Render the transformed program.
  std::ostringstream OS;
  if (!Prog.Name.empty())
    OS << "program " << Prog.Name << "\n";
  for (const GlobalDecl &G : Prog.Globals) {
    OS << "global " << G.Name;
    if (G.Init)
      OS << " = " << *G.Init;
    OS << "\n";
  }
  for (const ArrayDecl &A : Prog.GlobalArrays)
    OS << "array " << A.Name << "(" << A.Size << ")\n";

  AstPrinter Printer;
  for (ProcId P = 0; P != Prog.Procs.size(); ++P) {
    const Proc &Pr = *Prog.Procs[P];
    OS << "\nproc " << Pr.name() << "(";
    for (size_t I = 0; I != Pr.formals().size(); ++I)
      OS << (I ? ", " : "") << Pr.formals()[I];
    OS << ")\n";
    std::vector<std::string> Locals = Pr.Locals;
    Locals.insert(Locals.end(), Integrated[P].ExtraLocals.begin(),
                  Integrated[P].ExtraLocals.end());
    if (!Locals.empty()) {
      OS << "  integer ";
      for (size_t I = 0; I != Locals.size(); ++I)
        OS << (I ? ", " : "") << Locals[I];
      OS << "\n";
    }
    for (const ArrayDecl &A : Pr.LocalArrays)
      OS << "  array " << A.Name << "(" << A.Size << ")\n";
    for (const auto &[Name, Size] : Integrated[P].ExtraArrays)
      OS << "  array " << Name << "(" << Size << ")\n";
    for (const Stmt *S : Integrated[P].Body)
      Printer.printStmt(S, OS, 1);
    OS << "end\n";
  }

  Result.Source = OS.str();
  return std::move(Result);
}

} // namespace

InlineResult ipcp::inlineProgram(const AstContext &Ctx,
                                 const SymbolTable &Symbols,
                                 const InlineOptions &Opts) {
  Inliner I(Ctx, Symbols, Opts);
  return I.run();
}
