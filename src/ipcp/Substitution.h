//===- ipcp/Substitution.h - Constant substitution counting -----*- C++ -*-===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stage 4 of the analyzer: recording the results. Following Metzger &
/// Stroud (paper §4.1), effectiveness is measured as the number of
/// constants actually substituted into the code — "known but irrelevant"
/// constants do not count. We count, uniformly for every configuration,
/// the source-level variable uses that the configuration proves to carry
/// a known constant (see DESIGN.md §3 "Metric"): an SCCP pass seeded with
/// the interprocedural CONSTANTS sets (or with BOTTOM for the purely
/// intraprocedural baseline) runs over each reachable procedure, and
/// every executable, substitutable use with a constant lattice value
/// counts once.
///
/// A use is *not* substitutable when it is a by-reference actual the
/// callee may modify — replacing the variable with a literal would break
/// the binding.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_IPCP_SUBSTITUTION_H
#define IPCP_IPCP_SUBSTITUTION_H

#include "analysis/CallGraph.h"
#include "analysis/DeadCodeElim.h"
#include "analysis/ModRef.h"
#include "analysis/RefAlias.h"
#include "ipcp/JumpFunctionBuilder.h"
#include "ipcp/Solver.h"
#include "lang/AstPrinter.h"

#include <vector>

namespace ipcp {
class AnalysisSession;
class CopyPropInfo;
class FlowAliasInfo;

/// Outcome of the substitution pass over one program.
struct SubstitutionResult {
  /// Total substituted (constant-valued) variable uses.
  unsigned Total = 0;
  /// Per-procedure breakdown, indexed by ProcId.
  std::vector<unsigned> PerProc;
  /// VarRefExpr id -> constant, for emitting transformed source.
  SubstitutionMap Map;
  /// Branches proven constant by the seeded SCCP (input to DCE in the
  /// complete-propagation loop).
  DeadCodeElim::Decisions Branches;
  /// Executable print statements whose operand is a known constant — a
  /// transform-stable effectiveness metric (print sites survive
  /// procedure integration, unlike call-argument use sites).
  unsigned ConstantPrints = 0;
};

/// Runs the seeded-SCCP substitution pass over the inputs of
/// \p Session, which must be non-null: \p M, \p Symbols, \p CG, \p MRI,
/// \p Aliases, \p FlowAliases and \p CopyFacts are the session's own
/// artifacts for one MOD setting, as the pipeline wires them (the short
/// overload below does the wiring). Each procedure's SSA form comes from
/// the session's per-procedure cache, keyed by MOD presence (\p MRI
/// non-null), which the call kill sets depend on.
///
/// \p Solve supplies the entry seeds (CONSTANTS sets); pass null for the
/// purely intraprocedural baseline (all entries BOTTOM). \p Jfs supplies
/// return jump functions for call-kill recovery; pass null to disable
/// them. \p Aliases supplies by-reference alias pairs; symbols it marks
/// unstable propagate as BOTTOM. With a non-null \p FlowAliases the
/// whole-procedure masks are replaced by per-point dirty gating
/// (analysis/FlowAlias.h): only reads at points where an aliased store
/// may have happened resolve to BOTTOM, so uses of an aliased symbol
/// before the first interfering store still count.
///
/// Each procedure's SCCP run is independent (it reads only the immutable
/// module and the frozen CONSTANTS sets), so with a non-null \p Pool the
/// procedures fan out across the workers; per-procedure partial results
/// are merged on the calling thread in the serial order, making the
/// outcome bit-identical to the serial run.
///
/// With a non-null \p CopyFacts each procedure's SCCP run consumes the
/// copy-propagation facts (analysis/CopyProp.h): array loads whose cell
/// provably holds a literal or the (seeded) entry value of a stable
/// symbol resolve instead of going BOTTOM — the substitution-side half
/// of --copy.
SubstitutionResult countSubstitutions(const Module &M,
                                      const SymbolTable &Symbols,
                                      const CallGraph &CG,
                                      const SolveResult *Solve,
                                      const ModRefInfo *MRI,
                                      const ProgramJumpFunctions *Jfs,
                                      const RefAliasInfo *Aliases,
                                      ThreadPool *Pool,
                                      AnalysisSession *Session,
                                      const FlowAliasInfo *FlowAliases =
                                          nullptr,
                                      const CopyPropInfo *CopyFacts =
                                          nullptr);

/// countSubstitutions over \p Session's cached MOD, alias and copy facts
/// for \p Opts, wired as the pipeline wires them.
SubstitutionResult countSubstitutions(AnalysisSession &Session,
                                      const JumpFunctionOptions &Opts,
                                      const SolveResult *Solve,
                                      const ProgramJumpFunctions *Jfs,
                                      ThreadPool *Pool = nullptr);

} // namespace ipcp

#endif // IPCP_IPCP_SUBSTITUTION_H
