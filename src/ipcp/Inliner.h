//===- ipcp/Inliner.h - Procedure integration -------------------*- C++ -*-===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Procedure integration, the competing approach to interprocedural
/// constant propagation discussed in the paper's Other Work section
/// (Wegman & Zadeck, reference [16]): inline procedures into their call
/// sites so every call-graph path is explicit, then let purely
/// intraprocedural constant propagation see the constants. The paper
/// notes this "potentially detects [more] constants than" jump-function
/// propagation, at the price of code growth — the comparison_wz bench
/// quantifies both sides on our suite.
///
/// The transform is source-to-source: callee bodies are cloned into
/// callers bottom-up over the call graph with fresh names for locals, a
/// by-reference name substitution for variable actuals, and by-value
/// temporaries for expression actuals (matching MiniFort call
/// semantics). The result is re-parsed by the caller, keeping every
/// later phase oblivious to inlining.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_IPCP_INLINER_H
#define IPCP_IPCP_INLINER_H

#include "lang/Ast.h"
#include "lang/Sema.h"

#include <string>

namespace ipcp {

/// Limits for one inlining run.
struct InlineOptions {
  /// Stop cloning once the inliner has emitted this many units: one per
  /// statement, plus one per started 16 bytes of every name it declares
  /// or writes into a statement (code-growth safety valve; generous by
  /// default). Names count because a renamed temporary grows by one
  /// suffix per inlined level: down a call chain of length n the
  /// statements grow as n^2, but the text as n^3.
  size_t MaxProgramStmts = 500000;
};

/// Outcome of one inlining run.
struct InlineResult {
  /// The transformed program, as re-parseable MiniFort source.
  std::string Source;
  unsigned InlinedCalls = 0;
  /// Calls left alone and why.
  unsigned SkippedRecursive = 0;
  unsigned SkippedHasReturn = 0;
  unsigned SkippedBudget = 0;

  bool fullyIntegrated() const {
    return SkippedRecursive + SkippedHasReturn + SkippedBudget == 0;
  }
};

/// Integrates every inlinable call of \p Ctx's (sema-checked) program.
/// Calls to recursive procedures and to procedures containing an early
/// 'return' are kept (the latter would need multi-exit splicing).
InlineResult inlineProgram(const AstContext &Ctx,
                           const SymbolTable &Symbols,
                           const InlineOptions &Opts = InlineOptions());

} // namespace ipcp

#endif // IPCP_IPCP_INLINER_H
