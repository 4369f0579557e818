//===- ipcp/Substitution.cpp - Constant substitution counting -------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "ipcp/Substitution.h"

#include "analysis/CopyProp.h"
#include "analysis/FlowAlias.h"
#include "analysis/Sccp.h"
#include "ipcp/AnalysisSession.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>

using namespace ipcp;

namespace {

/// One procedure's share of the substitution pass.
struct ProcSubstitutions {
  unsigned Count = 0;
  unsigned ConstantPrints = 0;
  SubstitutionMap Map;
  DeadCodeElim::Decisions Branches;
};

ProcSubstitutions countProc(const SsaForm &Ssa, const SymbolTable &Symbols,
                            const SolveResult *Solve,
                            const SccpKillFn *KillFnPtr,
                            const RefAliasInfo &Aliases,
                            const FlowAliasInfo *FlowAliases,
                            const CopyPropInfo *CopyFacts, ProcId P) {
  ProcSubstitutions Out;
  const Function &F = Ssa.function();

  // Seed the entry lattice with this procedure's CONSTANTS set.
  SccpSeeds Seeds;
  if (Solve)
    for (const auto &[Sym, V] : Solve->Val.at(P))
      Seeds.emplace(Sym, V);

  // Flow-sensitive mode replaces the whole-procedure mask with per-point
  // dirty gating; at most one of the two reaches the SCCP run.
  Sccp Analysis(Ssa, Symbols, Solve ? &Seeds : nullptr, KillFnPtr,
                FlowAliases ? nullptr : &Aliases.unstableMask(P),
                FlowAliases ? &FlowAliases->proc(P) : nullptr,
                CopyFacts ? &CopyFacts->proc(P) : nullptr);

  for (BlockId B = 0, BE = static_cast<BlockId>(F.numBlocks()); B != BE;
       ++B) {
    if (!Analysis.blockExecutable(B))
      continue;
    const auto &Instrs = F.block(B).Instrs;
    for (uint32_t I = 0, IE = static_cast<uint32_t>(Instrs.size());
         I != IE; ++I) {
      const Instr &In = Instrs[I];
      const InstrSsaInfo &Info = Ssa.instrInfo(B, I);

      // A by-reference actual the callee may modify must stay a
      // variable.
      auto unsubstitutable = [&](const Operand &Op) {
        if (In.Op != Opcode::Call || !Op.isVar())
          return false;
        for (const auto &[Killed, Def] : Info.Kills)
          if (Killed == Op.Sym)
            return true;
        return false;
      };

      if (In.Op == Opcode::Print &&
          Analysis.operandValue(B, I, 0).isConst())
        ++Out.ConstantPrints;

      uint32_t Slot = 0;
      In.forEachUse([&](const Operand &Op) {
        uint32_t S = Slot++;
        if (!Op.isVar() || Op.SourceExpr == 0 || unsubstitutable(Op))
          return;
        // Read through the gate: in flow-sensitive mode a use at a dirty
        // point must not be substituted even when its SSA value is known.
        LatticeValue V = Analysis.operandValue(B, I, S);
        if (!V.isConst())
          return;
        ++Out.Count;
        Out.Map.emplace(Op.SourceExpr, V.value());
      });
    }
  }

  for (auto [StmtId, Taken] : Analysis.constantBranches())
    Out.Branches.emplace(StmtId, Taken);
  return Out;
}

} // namespace

SubstitutionResult ipcp::countSubstitutions(
    const Module &M, const SymbolTable &Symbols, const CallGraph &CG,
    const SolveResult *Solve, const ModRefInfo *MRI,
    const ProgramJumpFunctions *Jfs, const RefAliasInfo *Aliases,
    ThreadPool *Pool, AnalysisSession *Session,
    const FlowAliasInfo *FlowAliases, const CopyPropInfo *CopyFacts) {
  assert(Session && "substitution runs over an analysis session");
  assert(&Symbols == &Session->symbols() &&
         "the inputs must come from the session");
  assert(Aliases && "by-reference alias facts are required");
  SubstitutionResult Result;
  Result.PerProc.assign(M.Functions.size(), 0);

  SccpKillFn KillFn;
  const SccpKillFn *KillFnPtr = nullptr;
  if (Jfs) {
    KillFn = makeSccpKillFn(*Jfs, Symbols);
    KillFnPtr = &KillFn;
  }

  // Fan the procedures out (each reads only immutable state and writes
  // its own slot), then merge serially in the fixed top-down order. The
  // merged maps are keyed by program-unique expression/statement ids, so
  // the merge is disjoint and the result identical to the serial pass.
  const auto &Order = CG.topDownOrder();
  std::vector<ProcSubstitutions> PerProc(Order.size());
  parallelFor(Pool, Order.size(), [&](size_t I) {
    ProcId P = Order[I];
    PerProc[I] = countProc(Session->ssa(P, MRI != nullptr).Ssa, Symbols,
                           Solve, KillFnPtr, *Aliases, FlowAliases, CopyFacts,
                           P);
  });

  for (size_t I = 0; I != Order.size(); ++I) {
    ProcSubstitutions &PS = PerProc[I];
    Result.Total += PS.Count;
    Result.PerProc[Order[I]] = PS.Count;
    Result.ConstantPrints += PS.ConstantPrints;
    Result.Map.insert(PS.Map.begin(), PS.Map.end());
    Result.Branches.insert(PS.Branches.begin(), PS.Branches.end());
  }

  return Result;
}

SubstitutionResult ipcp::countSubstitutions(AnalysisSession &Session,
                                            const JumpFunctionOptions &Opts,
                                            const SolveResult *Solve,
                                            const ProgramJumpFunctions *Jfs,
                                            ThreadPool *Pool) {
  bool Mod = Opts.UseMod;
  return countSubstitutions(
      Session.module(), Session.symbols(), Session.callGraph(), Solve,
      Session.modRef(Mod), Jfs, &Session.refAlias(Mod), Pool, &Session,
      Opts.FlowSensitiveAlias ? &Session.flowAlias(Mod) : nullptr,
      Opts.CopyPropagation ? &Session.copyProp(Mod) : nullptr);
}
