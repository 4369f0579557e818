//===- fuzz/AstEdit.h - Shared AST surgery helpers --------------*- C++ -*-===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Plumbing the mutator and the reducer share: a flattened view of every
/// statement list in a program (with a writer that pushes an edited list
/// back into its owning node), and the parse/sema/print round-trip that
/// both use to validate and canonicalize candidate programs. AST nodes
/// have no parent links and statement lists live inside four different
/// node shapes, so edits go through this view instead of ad-hoc casts.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_FUZZ_ASTEDIT_H
#define IPCP_FUZZ_ASTEDIT_H

#include "lang/Ast.h"

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ipcp {
namespace fuzz {

/// One statement list somewhere in the program (a procedure body, an IF
/// arm, or a loop body), with a setter that writes a replacement list
/// back into the owning node.
struct StmtListRef {
  /// Snapshot of the list's contents at collection time.
  std::vector<Stmt *> Items;
  /// Writes a new list into the owning node. Using it invalidates the
  /// Items snapshots of lists nested inside statements that were
  /// dropped, so apply at most one structural edit per collection.
  std::function<void(std::vector<Stmt *>)> Set;
  /// Index into Program::Procs of the procedure containing the list.
  ProcId Owner = 0;
};

/// Collects every statement list of \p Prog, depth-first: each
/// procedure's body first, then the lists inside its nested statements.
std::vector<StmtListRef> collectStmtLists(Program &Prog);

/// Pretty-prints \p Prog back to source (no substitutions).
std::string printProgram(const Program &Prog);

/// Parse + sema + print: the canonical text of \p Source, or nullopt
/// when it is not a valid program. Both the mutator and the reducer emit
/// canonical text, so "did this edit change anything" is a string
/// comparison.
std::optional<std::string> normalizeProgram(std::string_view Source);

} // namespace fuzz
} // namespace ipcp

#endif // IPCP_FUZZ_ASTEDIT_H
