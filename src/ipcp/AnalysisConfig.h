//===- ipcp/AnalysisConfig.h - One definition of a configuration *- C++ -*-===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// How every surface spells an analyzer configuration (PipelineOptions):
/// one row per boolean flag, one token per jump-function kind and solver
/// strategy, and the codec behind the driver's flags and usage text. The
/// same table drives the `config` object of serve requests and the
/// reply-cache key (serve/Protocol.cpp), the session's jump-function
/// base key and the report header (serve/Render.cpp). Adding a flag is
/// one row here, its field, and the code that reads it (DESIGN.md,
/// "Adding an analysis flag"). Wire bytes depend on the rows' keys and
/// elision rules, so existing rows are never respelled.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_IPCP_ANALYSISCONFIG_H
#define IPCP_IPCP_ANALYSISCONFIG_H

#include "ipcp/Pipeline.h"

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

namespace ipcp {

/// One boolean analysis flag, as every surface spells it. The driver
/// flag sets the member to the opposite of its PipelineOptions default,
/// so the default alone gives the flag's polarity (--no-rjf, --gsa).
struct AnalysisFlag {
  bool PipelineOptions::*Member;
  /// Member name in request `config` objects and in the cache key.
  const char *Key;
  /// Driver spelling and its usage line.
  const char *Cli;
  const char *Help;
  /// A JumpFunctionOptions member: part of the session's jump-function
  /// base key. The others (complete, intra_only) are pipeline-only.
  bool JumpFunctionOption;
  /// Written to `config` objects even at its default. The others are
  /// elided at their default, so documents from before the flag existed
  /// keep their exact bytes.
  bool AlwaysWritten;
  /// Report-header fragments when the flag is set and when it is clear.
  const char *LabelOn;
  const char *LabelOff;
};

/// The flag table, in the order every surface lists the flags.
inline constexpr AnalysisFlag AnalysisFlags[] = {
    {&PipelineOptions::UseReturnJumpFunctions, "rjf", "--no-rjf",
     "disable return jump functions", true, true, ", return JFs", ""},
    {&PipelineOptions::UseMod, "mod", "--no-mod",
     "drop interprocedural MOD information", true, true, ", MOD",
     ", no MOD"},
    {&PipelineOptions::CompletePropagation, "complete", "--complete",
     "iterate with dead-code elimination", false, true, ", complete", ""},
    {&PipelineOptions::UseGatedSsa, "gsa", "--gsa",
     "gated-SSA jump functions (no DCE iteration)", true, true,
     ", gated SSA", ""},
    {&PipelineOptions::FlowSensitiveAlias, "fsa", "--fsa",
     "flow-sensitive by-reference aliasing", true, false,
     ", flow-sensitive aliasing", ""},
    {&PipelineOptions::OptimisticVn, "ogvn", "--ogvn",
     "optimistic (iterative) value numbering", true, false,
     ", optimistic GVN", ""},
    {&PipelineOptions::CopyPropagation, "copy", "--copy",
     "interprocedural copy propagation (copy lattice)", true, false,
     ", copy propagation", ""},
    {&PipelineOptions::IntraproceduralOnly, "intra_only", "--intra-only",
     "purely intraprocedural propagation", false, true,
     " [intraprocedural only]", ""},
};

/// The value \p F has in a default-constructed PipelineOptions.
constexpr bool flagDefault(const AnalysisFlag &F) {
  return PipelineOptions{}.*F.Member;
}

/// Number of JumpFunctionOption rows: jumpFunctionFlagBits() is below
/// 1 << NumJumpFunctionFlags.
inline constexpr unsigned NumJumpFunctionFlags = [] {
  unsigned N = 0;
  for (const AnalysisFlag &F : AnalysisFlags)
    N += F.JumpFunctionOption;
  return N;
}();

/// Wire token of each jump-function kind ("literal", "intra", "pass",
/// "poly") and solver strategy ("worklist", "round-robin",
/// "binding-graph").
const char *jumpFunctionKindToken(JumpFunctionKind K);
const char *solverStrategyToken(SolverStrategy S);

/// The kind or strategy a wire token names; nullopt for any other text.
std::optional<JumpFunctionKind> parseJumpFunctionKindToken(std::string_view);
std::optional<SolverStrategy> parseSolverStrategyToken(std::string_view);

/// Every token, "|"-separated, for diagnostics ("literal|intra|...").
std::string jumpFunctionKindChoices();
std::string solverStrategyChoices();

/// What parseConfigArg did with one command-line argument.
enum class ConfigArg { NotConfig, Applied, Invalid };

/// Applies \p Arg to \p Opts if it is an analysis option: --jf=<kind>,
/// a flag row's spelling, or a non-default strategy (--round-robin,
/// --binding-graph). Invalid fills \p Error.
ConfigArg parseConfigArg(std::string_view Arg, PipelineOptions &Opts,
                         std::string &Error);

/// The analysis-option lines of the driver's usage text.
void printConfigUsage(std::ostream &OS);

/// The jump-function flags of \p Opts packed one bit per row (Kind
/// excluded) — the session's jump-function base key.
unsigned jumpFunctionFlagBits(const JumpFunctionOptions &Opts);

} // namespace ipcp

#endif // IPCP_IPCP_ANALYSISCONFIG_H
