//===- tests/TestHelpers.h - Shared test fixtures ---------------*- C++ -*-===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers every test file shares: parse-and-check, a FullAnalysis
/// bundle that runs the front end through MOD so IR-level tests can grab
/// any intermediate structure, and jump functions built over a session.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_TESTS_TESTHELPERS_H
#define IPCP_TESTS_TESTHELPERS_H

#include "analysis/CallGraph.h"
#include "analysis/ModRef.h"
#include "ipcp/AnalysisSession.h"
#include "ir/CfgBuilder.h"
#include "ir/Dominators.h"
#include "lang/Parser.h"
#include "lang/Sema.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

namespace ipcp {
namespace test {

/// Parses \p Source and fails the test on any diagnostic.
inline std::unique_ptr<AstContext> parseOk(const std::string &Source) {
  DiagnosticEngine Diags;
  auto Ctx = parseProgram(Source, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  return Ctx;
}

/// Everything up to MOD/REF, bundled. Keeps the pieces alive together so
/// tests can poke at any layer.
struct FullAnalysis {
  std::unique_ptr<AstContext> Ctx;
  SymbolTable Symbols;
  Module M;
  std::unique_ptr<CallGraph> CG;
  std::unique_ptr<ModRefInfo> MRI;

  const Program &program() const { return Ctx->program(); }

  ProcId proc(const std::string &Name) const {
    auto P = Ctx->program().findProc(Name);
    EXPECT_TRUE(P.has_value()) << "no procedure " << Name;
    return *P;
  }

  const Function &function(const std::string &Name) const {
    return M.function(proc(Name));
  }

  SymbolId symbol(const std::string &Name) const {
    for (const Symbol &S : Symbols.symbols())
      if (S.Name == Name)
        return S.Id;
    ADD_FAILURE() << "no symbol " << Name;
    return InvalidSymbol;
  }

  /// Symbol visible in \p Proc (resolves formals/locals owned by it,
  /// else globals).
  SymbolId symbolIn(const std::string &ProcName,
                    const std::string &Name) const {
    ProcId P = proc(ProcName);
    for (const Symbol &S : Symbols.symbols())
      if (S.Name == Name &&
          (S.Owner == P || S.Owner == UINT32_MAX))
        return S.Id;
    ADD_FAILURE() << "no symbol " << Name << " in " << ProcName;
    return InvalidSymbol;
  }
};

/// Runs parse + sema + lowering + call graph + MOD. Fails the test on
/// any front-end error.
inline FullAnalysis analyze(const std::string &Source) {
  FullAnalysis A;
  CheckedProgram Checked = checkProgram(Source);
  EXPECT_TRUE(Checked.ok()) << Checked.Error;
  A.Ctx = std::move(Checked.Ctx);
  A.Symbols = std::move(Checked.Symbols);
  A.M = buildModule(A.Ctx->program(), A.Symbols);
  auto Entry = A.Ctx->program().entryProc();
  EXPECT_TRUE(Entry.has_value());
  A.CG = std::make_unique<CallGraph>(A.M, *Entry);
  A.MRI = std::make_unique<ModRefInfo>(A.M, A.Symbols, *A.CG);
  return A;
}

/// Collects the diagnostics of a parse+sema run (for error tests).
inline std::string diagnose(const std::string &Source) {
  return checkProgram(Source).Error;
}

/// The jump functions of \p A under \p Opts, built as the pipeline builds
/// them: on a fresh AnalysisSession over A's checked program (whose
/// module and call graph match A's, so procedure and site indices line
/// up).
inline ProgramJumpFunctions
buildJfs(const FullAnalysis &A,
         const JumpFunctionOptions &Opts = JumpFunctionOptions()) {
  AnalysisSession Session(*A.Ctx, A.Symbols);
  return buildJumpFunctions(Session, Opts);
}

} // namespace test
} // namespace ipcp

#endif // IPCP_TESTS_TESTHELPERS_H
