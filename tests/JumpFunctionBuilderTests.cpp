//===- tests/JumpFunctionBuilderTests.cpp - ipcp/JumpFunctionBuilder ------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "ipcp/JumpFunctionBuilder.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

using namespace ipcp;
using namespace ipcp::test;

namespace {

ProgramJumpFunctions build(const FullAnalysis &A,
                           JumpFunctionKind Kind,
                           bool UseRjf = true, bool UseMod = true) {
  JumpFunctionOptions Opts;
  Opts.Kind = Kind;
  Opts.UseReturnJumpFunctions = UseRjf;
  Opts.UseMod = UseMod;
  return buildJfs(A, Opts);
}

/// The jump functions at the I-th call site in \p Proc.
const CallSiteJumpFunctions &siteJfs(const FullAnalysis &A,
                                     const ProgramJumpFunctions &Jfs,
                                     const std::string &Proc,
                                     size_t Site = 0) {
  return Jfs.PerSite.at(A.proc(Proc)).at(Site);
}

} // namespace

TEST(JumpFunctionBuilder, LiteralArgGivesConstJf) {
  FullAnalysis A = analyze(
      "proc main()\n  call f(7)\nend\nproc f(x)\n  print x\nend\n");
  for (JumpFunctionKind Kind :
       {JumpFunctionKind::Literal, JumpFunctionKind::IntraConst,
        JumpFunctionKind::PassThrough, JumpFunctionKind::Polynomial}) {
    ProgramJumpFunctions Jfs = build(A, Kind);
    const auto &Site = siteJfs(A, Jfs, "main");
    ASSERT_EQ(Site.Args.size(), 1u);
    ASSERT_TRUE(Site.Args[0].isConst()) << jumpFunctionKindName(Kind);
    EXPECT_EQ(Site.Args[0].constValue(), 7);
  }
}

TEST(JumpFunctionBuilder, ComputedConstSeparatesLiteralFromIntra) {
  FullAnalysis A = analyze(R"(proc main()
  integer k
  k = 3 * 4
  call f(k)
end
proc f(x)
  print x
end
)");
  ProgramJumpFunctions LitJfs = build(A, JumpFunctionKind::Literal);
  EXPECT_TRUE(siteJfs(A, LitJfs, "main").Args[0].isBottom());
  ProgramJumpFunctions IntraJfs = build(A, JumpFunctionKind::IntraConst);
  const auto &Intra = siteJfs(A, IntraJfs, "main");
  ASSERT_TRUE(Intra.Args[0].isConst());
  EXPECT_EQ(Intra.Args[0].constValue(), 12);
}

TEST(JumpFunctionBuilder, ForwardedFormalSeparatesIntraFromPass) {
  FullAnalysis A = analyze(R"(proc main()
  call a(5)
end
proc a(x)
  call b(x)
end
proc b(y)
  print y
end
)");
  ProgramJumpFunctions IntraJfs = build(A, JumpFunctionKind::IntraConst);
  EXPECT_TRUE(siteJfs(A, IntraJfs, "a").Args[0].isBottom());
  ProgramJumpFunctions PassJfs = build(A, JumpFunctionKind::PassThrough);
  const auto &Pass = siteJfs(A, PassJfs, "a");
  EXPECT_EQ(Pass.Args[0].form(), JumpFunction::Form::PassThrough);
  EXPECT_EQ(Pass.Args[0].support(),
            std::vector<SymbolId>{A.symbolIn("a", "x")});
}

TEST(JumpFunctionBuilder, PolynomialArgSeparatesPassFromPoly) {
  FullAnalysis A = analyze(R"(proc main()
  call a(5)
end
proc a(x)
  call b(x * 2 + 1)
end
proc b(y)
  print y
end
)");
  ProgramJumpFunctions PassJfs = build(A, JumpFunctionKind::PassThrough);
  EXPECT_TRUE(siteJfs(A, PassJfs, "a").Args[0].isBottom());
  ProgramJumpFunctions PolyJfs = build(A, JumpFunctionKind::Polynomial);
  const auto &Poly = siteJfs(A, PolyJfs, "a");
  EXPECT_EQ(Poly.Args[0].form(), JumpFunction::Form::Poly);
  auto Env = [&](SymbolId) { return LatticeValue::constant(5); };
  EXPECT_EQ(Poly.Args[0].eval(Env).value(), 11);
}

TEST(JumpFunctionBuilder, GlobalsGetJumpFunctionsExceptLiteral) {
  FullAnalysis A = analyze(R"(global g
proc main()
  g = 64
  call f()
end
proc f()
  print g
end
)");
  // Literal: globals are passed implicitly, never as literals (§3.1.1).
  ProgramJumpFunctions LitJfs = build(A, JumpFunctionKind::Literal);
  EXPECT_TRUE(siteJfs(A, LitJfs, "main").Globals[0].isBottom());
  ProgramJumpFunctions IntraJfs = build(A, JumpFunctionKind::IntraConst);
  const auto &Intra = siteJfs(A, IntraJfs, "main");
  ASSERT_TRUE(Intra.Globals[0].isConst());
  EXPECT_EQ(Intra.Globals[0].constValue(), 64);
}

TEST(JumpFunctionBuilder, UntouchedGlobalIsPassThrough) {
  FullAnalysis A = analyze(R"(global g
proc main()
  g = 1
  call a()
end
proc a()
  call b()
end
proc b()
  print g
end
)");
  ProgramJumpFunctions PassJfs = build(A, JumpFunctionKind::PassThrough);
  const auto &Site = siteJfs(A, PassJfs, "a");
  EXPECT_EQ(Site.Globals[0].form(), JumpFunction::Form::PassThrough);
}

TEST(JumpFunctionBuilder, ReturnJfForConstantSetter) {
  FullAnalysis A = analyze(R"(proc main()
  integer v
  call set(v)
  print v
end
proc set(o)
  o = 25
end
)");
  ProgramJumpFunctions Jfs = build(A, JumpFunctionKind::Polynomial);
  const JumpFunction *Rjf =
      Jfs.returnJf(A.proc("set"), A.symbolIn("set", "o"));
  ASSERT_NE(Rjf, nullptr);
  ASSERT_TRUE(Rjf->isConst());
  EXPECT_EQ(Rjf->constValue(), 25);
}

TEST(JumpFunctionBuilder, ReturnJfPolynomialOfInputs) {
  FullAnalysis A = analyze(R"(proc main()
  integer v
  v = 1
  call twice(v)
end
proc twice(o)
  o = o * 2
end
)");
  ProgramJumpFunctions Jfs = build(A, JumpFunctionKind::Polynomial);
  const JumpFunction *Rjf =
      Jfs.returnJf(A.proc("twice"), A.symbolIn("twice", "o"));
  ASSERT_NE(Rjf, nullptr);
  EXPECT_EQ(Rjf->form(), JumpFunction::Form::Poly);
  auto Env = [&](SymbolId) { return LatticeValue::constant(21); };
  EXPECT_EQ(Rjf->eval(Env).value(), 42);
}

TEST(JumpFunctionBuilder, ReturnJfBottomForRead) {
  FullAnalysis A = analyze(R"(proc main()
  integer v
  call input(v)
end
proc input(o)
  read o
end
)");
  ProgramJumpFunctions Jfs = build(A, JumpFunctionKind::Polynomial);
  const JumpFunction *Rjf =
      Jfs.returnJf(A.proc("input"), A.symbolIn("input", "o"));
  ASSERT_NE(Rjf, nullptr);
  EXPECT_TRUE(Rjf->isBottom());
}

TEST(JumpFunctionBuilder, NoReturnJfsWhenDisabled) {
  FullAnalysis A = analyze(R"(proc main()
  integer v
  call set(v)
end
proc set(o)
  o = 1
end
)");
  ProgramJumpFunctions Jfs =
      build(A, JumpFunctionKind::Polynomial, /*UseRjf=*/false);
  EXPECT_EQ(Jfs.returnJf(A.proc("set"), A.symbolIn("set", "o")), nullptr);
  EXPECT_EQ(Jfs.Stats.NumReturn, 0u);
}

TEST(JumpFunctionBuilder, RjfRecoveryFeedsForwardJfs) {
  // The §3.2 two-evaluation scheme: set(v) makes v=4 via the RJF, so the
  // forward JF at use(v) is the constant 4.
  FullAnalysis A = analyze(R"(proc main()
  integer v
  call set(v)
  call use(v)
end
proc set(o)
  o = 4
end
proc use(p)
  print p
end
)");
  ProgramJumpFunctions Jfs = build(A, JumpFunctionKind::IntraConst);
  const auto &Site = siteJfs(A, Jfs, "main", 1);
  ASSERT_TRUE(Site.Args[0].isConst());
  EXPECT_EQ(Site.Args[0].constValue(), 4);
}

TEST(JumpFunctionBuilder, RjfDependingOnCallerParamIsNotConstant) {
  // §3.2: "return jump functions that depend on parameters to the
  // calling procedure can never be evaluated as constant."
  FullAnalysis A = analyze(R"(proc main()
  integer v
  read v
  call twice(v)
  call use(v)
end
proc twice(o)
  o = o * 2
end
proc use(p)
  print p
end
)");
  ProgramJumpFunctions Jfs = build(A, JumpFunctionKind::Polynomial);
  const auto &Site = siteJfs(A, Jfs, "main", 1);
  EXPECT_TRUE(Site.Args[0].isBottom());
}

TEST(JumpFunctionBuilder, CalleeKeyForKillBasics) {
  FullAnalysis A = analyze(R"(global g
proc main()
  integer x
  call f(x, g)
end
proc f(a, b)
  a = 1
  b = 2
  g = 3
end
)");
  const Function &Main = A.function("main");
  const Instr *Call = nullptr;
  for (BlockId B = 0; B != Main.numBlocks(); ++B)
    for (const Instr &In : Main.block(B).Instrs)
      if (In.Op == Opcode::Call)
        Call = &In;
  ASSERT_NE(Call, nullptr);

  // x binds to formal a.
  auto KeyX = ProgramJumpFunctions::calleeKeyForKill(
      *Call, A.symbolIn("main", "x"), A.Symbols);
  ASSERT_TRUE(KeyX.has_value());
  EXPECT_EQ(*KeyX, A.symbolIn("f", "a"));
  // g is both a global and a by-ref actual: ambiguous.
  EXPECT_FALSE(ProgramJumpFunctions::calleeKeyForKill(
                   *Call, A.symbol("g"), A.Symbols)
                   .has_value());
}

TEST(JumpFunctionBuilder, CalleeKeyForKillDuplicateActualIsAmbiguous) {
  FullAnalysis A = analyze(R"(proc main()
  integer x
  call f(x, x)
end
proc f(a, b)
  a = 1
end
)");
  const Function &Main = A.function("main");
  for (BlockId B = 0; B != Main.numBlocks(); ++B)
    for (const Instr &In : Main.block(B).Instrs)
      if (In.Op == Opcode::Call)
        EXPECT_FALSE(ProgramJumpFunctions::calleeKeyForKill(
                         In, A.symbolIn("main", "x"), A.Symbols)
                         .has_value());
}

TEST(JumpFunctionBuilder, PureGlobalKillKeyIsItself) {
  FullAnalysis A = analyze(R"(global g
proc main()
  call f()
end
proc f()
  g = 1
end
)");
  const Function &Main = A.function("main");
  for (BlockId B = 0; B != Main.numBlocks(); ++B)
    for (const Instr &In : Main.block(B).Instrs)
      if (In.Op == Opcode::Call) {
        auto Key = ProgramJumpFunctions::calleeKeyForKill(
            In, A.symbol("g"), A.Symbols);
        ASSERT_TRUE(Key.has_value());
        EXPECT_EQ(*Key, A.symbol("g"));
      }
}

TEST(JumpFunctionBuilder, StatsCountForms) {
  FullAnalysis A = analyze(R"(global g
proc main()
  integer k
  g = 2
  k = 3
  call f(1, k, g)
end
proc f(a, b, c)
  call leaf(a, a + b)
end
proc leaf(x, y)
  print x + y
end
)");
  ProgramJumpFunctions Jfs = build(A, JumpFunctionKind::Polynomial);
  // Forward JFs exist for every (site, formal) and (site, global) pair.
  size_t Sites = A.CG->numCallSites();
  size_t Expected = 0;
  for (ProcId P = 0; P != A.CG->numProcs(); ++P)
    for (const CallSite &S : A.CG->callSitesIn(P))
      Expected += A.Symbols.formals(S.Callee).size() +
                  A.Symbols.globalScalars().size();
  (void)Sites;
  EXPECT_EQ(Jfs.Stats.NumForward, Expected);
  EXPECT_EQ(Jfs.Stats.NumForward,
            Jfs.Stats.NumForwardConst + Jfs.Stats.NumForwardPassThrough +
                Jfs.Stats.NumForwardPoly + Jfs.Stats.NumForwardBottom);
  EXPECT_GT(Jfs.Stats.NumForwardPoly, 0u);
  EXPECT_GE(Jfs.Stats.avgPolySupport(), 1.0);
}

TEST(JumpFunctionBuilder, UnreachableProcsGetNoSiteJfs) {
  FullAnalysis A = analyze(R"(proc main()
end
proc orphan()
  call main()
end
)");
  ProgramJumpFunctions Jfs = build(A, JumpFunctionKind::Polynomial);
  EXPECT_TRUE(Jfs.PerSite[A.proc("orphan")].empty());
}

TEST(JumpFunctionBuilder, WithoutModLeafRjfStillWorks) {
  // DESIGN.md: without MOD, return jump functions of call-free
  // procedures survive; anything with a call inside degrades.
  FullAnalysis A = analyze(R"(proc main()
  integer v
  call set(v)
  call use(v)
end
proc set(o)
  o = 9
end
proc use(p)
  print p
end
)");
  ProgramJumpFunctions Jfs = build(A, JumpFunctionKind::Polynomial,
                                   /*UseRjf=*/true, /*UseMod=*/false);
  const auto &Site = siteJfs(A, Jfs, "main", 1);
  ASSERT_TRUE(Site.Args[0].isConst());
  EXPECT_EQ(Site.Args[0].constValue(), 9);
}

TEST(JumpFunctionBuilder, WithoutModNonLeafRjfDegrades) {
  FullAnalysis A = analyze(R"(global g
proc main()
  g = 5
  call wrapper()
  call use()
end
proc wrapper()
  call noop()
end
proc noop()
end
proc use()
  print g
end
)");
  // With MOD, g survives the wrapper call; without, it dies (wrapper is
  // not a leaf, so no identity RJF can be evaluated).
  ProgramJumpFunctions WithMod = build(A, JumpFunctionKind::Polynomial);
  ProgramJumpFunctions NoMod = build(A, JumpFunctionKind::Polynomial,
                                     /*UseRjf=*/true, /*UseMod=*/false);
  // JFs for g at the 'use' call site (site index 1 in main).
  ASSERT_TRUE(
      siteJfs(A, WithMod, "main", 1).Globals[0].isConst());
  EXPECT_TRUE(siteJfs(A, NoMod, "main", 1).Globals[0].isBottom());
}
