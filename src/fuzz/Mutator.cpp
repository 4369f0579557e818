//===- fuzz/Mutator.cpp - MiniFort program mutation -----------------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Mutator.h"

#include "fuzz/AstEdit.h"
#include "fuzz/FuzzRng.h"
#include "lang/AstClone.h"
#include "lang/Sema.h"
#include "support/Casting.h"

#include <string>
#include <vector>

using namespace ipcp;
using namespace ipcp::fuzz;

namespace {

/// One freshly parsed copy of the input plus the lookup structures every
/// edit needs. Rebuilt per attempt so edits start from pristine trees.
struct EditContext {
  std::unique_ptr<AstContext> Ctx;
  Program *Prog = nullptr;
  std::vector<StmtListRef> Lists;
  /// Every call statement with its position: (list index, item index).
  struct CallSite {
    size_t List;
    size_t Item;
    CallStmt *Call;
  };
  std::vector<CallSite> Calls;
  /// Every DO loop with its position.
  struct DoSite {
    size_t List;
    size_t Item;
    DoLoopStmt *Loop;
  };
  std::vector<DoSite> Dos;

  explicit EditContext(std::string_view Source) {
    Ctx = checkProgram(Source).Ctx;
    if (!Ctx)
      return;
    Prog = &Ctx->program();
    Lists = collectStmtLists(*Prog);
    for (size_t L = 0; L != Lists.size(); ++L)
      for (size_t I = 0; I != Lists[L].Items.size(); ++I) {
        Stmt *S = Lists[L].Items[I];
        if (auto *C = dyn_cast<CallStmt>(S))
          Calls.push_back({L, I, C});
        else if (auto *D = dyn_cast<DoLoopStmt>(S))
          Dos.push_back({L, I, D});
      }
  }

  /// Scalar names visible inside procedure \p P: formals, locals, then
  /// globals (the pools every edit draws replacement operands from).
  std::vector<std::string> scalarsOf(ProcId P) const {
    std::vector<std::string> Names;
    const Proc &Pr = *Prog->Procs[P];
    Names.insert(Names.end(), Pr.formals().begin(), Pr.formals().end());
    Names.insert(Names.end(), Pr.Locals.begin(), Pr.Locals.end());
    for (const GlobalDecl &G : Prog->Globals)
      Names.push_back(G.Name);
    return Names;
  }

  /// Worker procedures (everything except main), as Program indices.
  std::vector<ProcId> workers() const {
    std::vector<ProcId> W;
    for (ProcId P = 0, E = static_cast<ProcId>(Prog->Procs.size()); P != E;
         ++P)
      if (Prog->Procs[P]->name() != "main")
        W.push_back(P);
    return W;
  }

  /// Replaces the statement at (\p List, \p Item) with \p With.
  void replaceStmt(size_t List, size_t Item, Stmt *With) {
    std::vector<Stmt *> Items = Lists[List].Items;
    Items[Item] = With;
    Lists[List].Set(std::move(Items));
  }

  /// Inserts \p S into list \p List at position \p At.
  void insertStmt(size_t List, size_t At, Stmt *S) {
    std::vector<Stmt *> Items = Lists[List].Items;
    Items.insert(Items.begin() + At, S);
    Lists[List].Set(std::move(Items));
  }
};

/// A literal or a visible scalar, the generic actual-argument filler.
Expr *randomActual(EditContext &E, FuzzRng &R,
                   const std::vector<std::string> &Scalars) {
  if (Scalars.empty() || R.chance(50))
    return E.Ctx->createExpr<IntLitExpr>(SourceLoc(), R.below(40) - 5);
  return E.Ctx->createExpr<VarRefExpr>(SourceLoc(),
                                       Scalars[R.below(int(Scalars.size()))]);
}

/// Builds a call to \p Callee with freshly chosen actuals visible in
/// procedure \p Owner.
CallStmt *buildCall(EditContext &E, FuzzRng &R, ProcId Callee,
                    ProcId Owner) {
  std::vector<std::string> Scalars = E.scalarsOf(Owner);
  std::vector<Expr *> Args;
  for (size_t A = 0, N = E.Prog->Procs[Callee]->formals().size(); A != N;
       ++A)
    Args.push_back(randomActual(E, R, Scalars));
  return E.Ctx->createStmt<CallStmt>(SourceLoc(),
                                     E.Prog->Procs[Callee]->name(),
                                     std::move(Args));
}

/// splice-call: insert a call to a random worker at a random program
/// point. Reshapes the call graph — new meets at the callee's formals,
/// possibly new recursion or previously-unreachable procedures becoming
/// reachable.
bool spliceCall(EditContext &E, FuzzRng &R, std::string &Trail) {
  std::vector<ProcId> Workers = E.workers();
  if (Workers.empty() || E.Lists.empty())
    return false;
  ProcId Callee = Workers[R.below(int(Workers.size()))];
  size_t L = size_t(R.below(int(E.Lists.size())));
  ProcId Owner = E.Lists[L].Owner;
  CallStmt *Call = buildCall(E, R, Callee, Owner);
  E.insertStmt(L, size_t(R.below(int(E.Lists[L].Items.size()) + 1)), Call);
  Trail = "splice-call(" + E.Prog->Procs[Callee]->name() + "@" +
          E.Prog->Procs[Owner]->name() + ")";
  return true;
}

/// alias-args: rewrite an existing call so the same variable binds two
/// reference formals, or a global binds one — the shapes RefAlias exists
/// to catch.
bool aliasArgs(EditContext &E, FuzzRng &R, std::string &Trail) {
  if (E.Calls.empty())
    return false;
  const auto &Site = E.Calls[R.below(int(E.Calls.size()))];
  size_t N = Site.Call->args().size();
  if (N == 0)
    return false;
  ProcId Owner = E.Lists[Site.List].Owner;
  std::vector<std::string> Scalars = E.scalarsOf(Owner);
  if (Scalars.empty())
    return false;
  std::vector<Expr *> Args;
  for (Expr *A : Site.Call->args())
    Args.push_back(cloneExpr(*E.Ctx, A, {}));
  bool SameVar = N >= 2 && R.chance(60);
  if (SameVar) {
    std::string V = Scalars[R.below(int(Scalars.size()))];
    size_t First = size_t(R.below(int(N)));
    size_t Second = (First + 1 + size_t(R.below(int(N) - 1))) % N;
    Args[First] = E.Ctx->createExpr<VarRefExpr>(SourceLoc(), V);
    Args[Second] = E.Ctx->createExpr<VarRefExpr>(SourceLoc(), V);
  } else {
    if (E.Prog->Globals.empty())
      return false;
    const std::string &G =
        E.Prog->Globals[R.below(int(E.Prog->Globals.size()))].Name;
    Args[R.below(int(N))] = E.Ctx->createExpr<VarRefExpr>(SourceLoc(), G);
  }
  CallStmt *New = E.Ctx->createStmt<CallStmt>(
      SourceLoc(), Site.Call->calleeName(), std::move(Args));
  E.replaceStmt(Site.List, Site.Item, New);
  Trail = std::string(SameVar ? "alias-args(" : "global-arg(") +
          Site.Call->calleeName() + ")";
  return true;
}

/// shield-arg: wrap a by-reference actual in (v + 0), turning it into a
/// by-value temporary — the aliasing flip in the other direction.
bool shieldArg(EditContext &E, FuzzRng &R, std::string &Trail) {
  if (E.Calls.empty())
    return false;
  const auto &Site = E.Calls[R.below(int(E.Calls.size()))];
  std::vector<size_t> VarArgs;
  for (size_t A = 0; A != Site.Call->args().size(); ++A)
    if (isa<VarRefExpr>(Site.Call->args()[A]))
      VarArgs.push_back(A);
  if (VarArgs.empty())
    return false;
  size_t Chosen = VarArgs[R.below(int(VarArgs.size()))];
  std::vector<Expr *> Args;
  for (size_t A = 0; A != Site.Call->args().size(); ++A) {
    Expr *Clone = cloneExpr(*E.Ctx, Site.Call->args()[A], {});
    if (A == Chosen)
      Clone = E.Ctx->createExpr<BinaryExpr>(
          SourceLoc(), BinaryOp::Add, Clone,
          E.Ctx->createExpr<IntLitExpr>(SourceLoc(), 0));
    Args.push_back(Clone);
  }
  CallStmt *New = E.Ctx->createStmt<CallStmt>(
      SourceLoc(), Site.Call->calleeName(), std::move(Args));
  E.replaceStmt(Site.List, Site.Item, New);
  Trail = "shield-arg(" + Site.Call->calleeName() + ")";
  return true;
}

/// perturb-do: replace a DO loop's bounds or stride. Constant bounds
/// make trip counts analyzable; an empty range, a stride of 2, or a
/// negative stride each hit a different corner of loop lowering.
bool perturbDo(EditContext &E, FuzzRng &R, std::string &Trail) {
  if (E.Dos.empty())
    return false;
  const auto &Site = E.Dos[R.below(int(E.Dos.size()))];
  DoLoopStmt *Old = Site.Loop;
  auto Lit = [&](int64_t V) {
    return E.Ctx->createExpr<IntLitExpr>(SourceLoc(), V);
  };
  Expr *Lo = cloneExpr(*E.Ctx, Old->lo(), {});
  Expr *Hi = cloneExpr(*E.Ctx, Old->hi(), {});
  Expr *Step = Old->step() ? cloneExpr(*E.Ctx, Old->step(), {}) : nullptr;
  const char *What = "";
  switch (R.below(4)) {
  case 0:
    Hi = Lit(R.below(6));
    What = "hi";
    break;
  case 1:
    Step = Lit(R.chance(50) ? 2 : -1);
    What = "step";
    break;
  case 2:
    Lo = Lit(3);
    Hi = Lit(1);
    What = "empty";
    break;
  default:
    Step = nullptr;
    What = "nostep";
    break;
  }
  DoLoopStmt *New = E.Ctx->createStmt<DoLoopStmt>(
      SourceLoc(), Old->var(), Lo, Hi, Step,
      std::vector<Stmt *>(Old->body()));
  E.replaceStmt(Site.List, Site.Item, New);
  Trail = std::string("perturb-do(") + What + ")";
  return true;
}

/// self-call: make a worker recursive with a guarded call to itself.
/// The guard keeps the common execution terminating; the analyzer must
/// still treat the procedure as a call-graph cycle.
bool toggleRecursion(EditContext &E, FuzzRng &R, std::string &Trail) {
  std::vector<ProcId> Workers = E.workers();
  if (Workers.empty())
    return false;
  ProcId P = Workers[R.below(int(Workers.size()))];
  std::vector<std::string> Scalars = E.scalarsOf(P);
  if (Scalars.empty())
    return false;
  Expr *Cond = E.Ctx->createExpr<BinaryExpr>(
      SourceLoc(), BinaryOp::CmpLt,
      E.Ctx->createExpr<VarRefExpr>(SourceLoc(),
                                    Scalars[R.below(int(Scalars.size()))]),
      E.Ctx->createExpr<IntLitExpr>(SourceLoc(), 1 + R.below(3)));
  CallStmt *Self = buildCall(E, R, P, P);
  IfStmt *Guard = E.Ctx->createStmt<IfStmt>(
      SourceLoc(), Cond, std::vector<Stmt *>{Self}, std::vector<Stmt *>{});
  // Insert into a list owned by P (its body or one of its nested lists).
  std::vector<size_t> Owned;
  for (size_t L = 0; L != E.Lists.size(); ++L)
    if (E.Lists[L].Owner == P)
      Owned.push_back(L);
  size_t L = Owned[R.below(int(Owned.size()))];
  E.insertStmt(L, size_t(R.below(int(E.Lists[L].Items.size()) + 1)), Guard);
  Trail = "self-call(" + E.Prog->Procs[P]->name() + ")";
  return true;
}

/// clone-proc: duplicate a worker under a fresh name and retarget one of
/// its call sites, splitting the formal's meet the way the cloning
/// transform does — but off-policy, wherever the dice land.
bool cloneProc(EditContext &E, FuzzRng &R, std::string &Trail) {
  std::vector<ProcId> Workers = E.workers();
  if (Workers.empty())
    return false;
  ProcId P = Workers[R.below(int(Workers.size()))];
  const Proc &Old = *E.Prog->Procs[P];
  std::string Base = Old.name();
  std::string NewName;
  for (int K = 0;; ++K) {
    NewName = Base + "_m" + std::to_string(K);
    if (!E.Prog->findProc(NewName))
      break;
  }
  auto Clone = std::make_unique<Proc>(SourceLoc(), NewName, Old.formals());
  Clone->Locals = Old.Locals;
  Clone->LocalArrays = Old.LocalArrays;
  Clone->Body = cloneStmts(*E.Ctx, Old.Body, {});
  E.Prog->Procs.push_back(std::move(Clone));
  std::vector<const EditContext::CallSite *> Sites;
  for (const auto &Site : E.Calls)
    if (Site.Call->calleeName() == Base)
      Sites.push_back(&Site);
  if (!Sites.empty())
    Sites[R.below(int(Sites.size()))]->Call->setCalleeName(NewName);
  Trail = "clone-proc(" + Base + "->" + NewName + ")";
  return true;
}

/// perturb-global: change or drop a global's compile-time initializer —
/// the entry-constant seed of the whole propagation.
bool perturbGlobal(EditContext &E, FuzzRng &R, std::string &Trail) {
  if (E.Prog->Globals.empty())
    return false;
  GlobalDecl &G = E.Prog->Globals[R.below(int(E.Prog->Globals.size()))];
  if (G.Init && R.chance(40))
    G.Init = std::nullopt;
  else
    G.Init = int64_t(R.below(100));
  Trail = "perturb-global(" + G.Name + ")";
  return true;
}

/// drop-stmt: delete one statement. Shrinks programs over time (the
/// counterweight to splice/clone growth) and removes defs/uses the
/// propagation depended on.
bool dropStmt(EditContext &E, FuzzRng &R, std::string &Trail) {
  std::vector<size_t> NonEmpty;
  for (size_t L = 0; L != E.Lists.size(); ++L)
    if (!E.Lists[L].Items.empty())
      NonEmpty.push_back(L);
  if (NonEmpty.empty())
    return false;
  size_t L = NonEmpty[R.below(int(NonEmpty.size()))];
  std::vector<Stmt *> Items = E.Lists[L].Items;
  Items.erase(Items.begin() + R.below(int(Items.size())));
  E.Lists[L].Set(std::move(Items));
  Trail = "drop-stmt";
  return true;
}

using EditFn = bool (*)(EditContext &, FuzzRng &, std::string &);

// Weighted toward the call-shape edits — they are the ones that move the
// interprocedural analysis; the rest keep the programs from ossifying.
constexpr EditFn Edits[] = {
    spliceCall, spliceCall, aliasArgs,       aliasArgs, shieldArg,
    perturbDo,  perturbDo,  toggleRecursion, cloneProc, perturbGlobal,
    dropStmt,
};

} // namespace

MutationResult ipcp::mutateProgram(std::string_view Source,
                                   const MutationOptions &Opts) {
  MutationResult Result;
  std::optional<std::string> Canonical = normalizeProgram(Source);
  if (!Canonical) {
    Result.Error = "input program is not valid MiniFort";
    return Result;
  }
  FuzzRng Master(Opts.Seed);
  for (int Attempt = 0; Attempt != Opts.Attempts; ++Attempt) {
    FuzzRng R = Master.derive(uint64_t(Attempt));
    EditContext E(Source);
    if (!E.Ctx) {
      Result.Error = "input program is not valid MiniFort";
      return Result;
    }
    std::string Trail;
    EditFn Edit = Edits[R.below(int(std::size(Edits)))];
    if (!Edit(E, R, Trail))
      continue;
    std::string Printed = printProgram(*E.Prog);
    // The edit worked on an unresolved tree; only mutants that re-check
    // cleanly (and actually changed the program) leave this function.
    std::optional<std::string> Checked = normalizeProgram(Printed);
    if (!Checked || *Checked == *Canonical)
      continue;
    Result.Ok = true;
    Result.Source = std::move(*Checked);
    Result.Trail = std::move(Trail);
    return Result;
  }
  Result.Error = "no valid mutant within attempt budget";
  return Result;
}
