//===- tests/InlinerTests.cpp - ipcp/Inliner unit tests -------------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "ipcp/Inliner.h"

#include "ipcp/Pipeline.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

using namespace ipcp;
using namespace ipcp::test;

namespace {

InlineResult inlineSource(const std::string &Source,
                          InlineOptions Opts = InlineOptions()) {
  CheckedProgram P = checkProgram(Source);
  EXPECT_TRUE(P.ok()) << P.Error;
  return inlineProgram(*P.Ctx, P.Symbols, Opts);
}

/// main -> p1 -> ... -> pN, each p_i passing `v + 1` on: every inlined
/// level adds a by-value temporary whose name carries one more inliner
/// suffix than the level below.
std::string callChain(unsigned N) {
  std::string S = "proc main()\n  call p1(0)\nend\n";
  for (unsigned I = 1; I <= N; ++I) {
    S += "proc p" + std::to_string(I) + "(v)\n";
    S += I < N ? "  call p" + std::to_string(I + 1) + "(v + 1)\n"
               : std::string("  print v\n");
    S += "end\n";
  }
  return S;
}

/// Runs the intraprocedural analyzer over (possibly inlined) source.
unsigned intraCount(const std::string &Source) {
  PipelineOptions Opts;
  Opts.IntraproceduralOnly = true;
  PipelineResult R = runPipeline(Source, Opts);
  EXPECT_TRUE(R.Ok) << R.Error;
  return R.SubstitutedConstants;
}

} // namespace

TEST(Inliner, ResultReparsesCleanly) {
  InlineResult R = inlineSource(R"(global g
proc main()
  g = 1
  call f(2)
end
proc f(x)
  print x + g
end
)");
  EXPECT_EQ(R.InlinedCalls, 1u);
  DiagnosticEngine Diags;
  auto Ctx = parseProgram(R.Source, Diags);
  Sema::run(*Ctx, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str() << "\n" << R.Source;
}

TEST(Inliner, LiteralArgumentBecomesVisibleIntraprocedurally) {
  const char *Source = R"(proc main()
  call f(5)
end
proc f(x)
  print x
  print x * 2
end
)";
  EXPECT_EQ(intraCount(Source), 0u);
  InlineResult R = inlineSource(Source);
  EXPECT_EQ(intraCount(R.Source), 2u); // Both uses now local to main.
}

TEST(Inliner, ByReferenceOutParamWritesCaller) {
  const char *Source = R"(proc main()
  integer v
  call set(v)
  print v
end
proc set(o)
  o = 77
end
)";
  InlineResult R = inlineSource(Source);
  ASSERT_EQ(R.InlinedCalls, 1u);
  // After inlining, v = 77 is a plain local assignment.
  EXPECT_NE(R.Source.find("v = 77"), std::string::npos) << R.Source;
  EXPECT_EQ(intraCount(R.Source), 1u);
}

TEST(Inliner, ExpressionActualBindsByValue) {
  const char *Source = R"(proc main()
  integer v
  v = 3
  call set(v + 0)
  print v
end
proc set(o)
  o = 99
end
)";
  InlineResult R = inlineSource(Source);
  // v keeps its value: the temporary absorbed the write.
  PipelineOptions Opts;
  PipelineResult Result = runPipeline(R.Source, Opts);
  ASSERT_TRUE(Result.Ok) << Result.Error;
  // Exactly two constant uses of v survive: the one inside 'v + 0'
  // (feeding the by-value temporary) and the final 'print v'. The
  // temporary itself is overwritten with 99 and never read.
  EXPECT_EQ(intraCount(R.Source), 2u);
}

TEST(Inliner, CalleeLocalsAreRenamed) {
  const char *Source = R"(proc main()
  integer t
  t = 1
  call f()
  print t
end
proc f()
  integer t
  t = 2
  print t
end
)";
  InlineResult R = inlineSource(Source);
  // main's t is still 1 at the print; the callee's t was renamed.
  DiagnosticEngine Diags;
  auto Ctx = parseProgram(R.Source, Diags);
  Sema::run(*Ctx, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  EXPECT_NE(R.Source.find("t__i"), std::string::npos);
}

TEST(Inliner, NestedCallsFullyIntegrate) {
  const char *Source = R"(proc main()
  call a(10)
end
proc a(x)
  call b(x + 1)
end
proc b(y)
  print y
end
)";
  InlineResult R = inlineSource(Source);
  EXPECT_TRUE(R.fullyIntegrated());
  // After full integration main holds: x' = 10 (literal, no use);
  // y' = x' + 1 (one constant use); print y' (one constant use).
  EXPECT_EQ(intraCount(R.Source), 2u);
}

TEST(Inliner, RecursiveCalleeKept) {
  const char *Source = R"(proc main()
  call fact(5)
end
proc fact(n)
  if (n > 1) then
    call fact(n - 1)
  end if
end
)";
  InlineResult R = inlineSource(Source);
  EXPECT_GT(R.SkippedRecursive, 0u);
  EXPECT_NE(R.Source.find("call fact("), std::string::npos);
}

TEST(Inliner, EarlyReturnCalleeKept) {
  const char *Source = R"(proc main()
  integer v
  v = 0
  call guard(v)
end
proc guard(x)
  if (x == 0) then
    return
  end if
  print x
end
)";
  InlineResult R = inlineSource(Source);
  EXPECT_EQ(R.InlinedCalls, 0u);
  EXPECT_EQ(R.SkippedHasReturn, 1u);
  EXPECT_NE(R.Source.find("call guard("), std::string::npos);
}

TEST(Inliner, BudgetStopsGrowth) {
  const char *Source = R"(proc main()
  call f(1)
  call f(2)
end
proc f(x)
  print x
  print x
  print x
end
)";
  InlineOptions Opts;
  Opts.MaxProgramStmts = 1; // Absurdly small: nothing gets inlined.
  InlineResult R = inlineSource(Source, Opts);
  EXPECT_GT(R.SkippedBudget, 0u);
}

TEST(Inliner, BudgetBoundsDeepChainText) {
  // Down the chain the statements grow as N^2 but the text as N^3: 400
  // procedures once inlined to 250 MB under the default budget, because
  // only statements counted. Names count too now, so the text stays
  // within a constant factor of the budget, the chain ends in kept
  // calls, and the result still checks.
  InlineOptions Opts;
  Opts.MaxProgramStmts = 20000;
  InlineResult R = inlineSource(callChain(400), Opts);
  EXPECT_GT(R.InlinedCalls, 0u);
  EXPECT_GT(R.SkippedBudget, 0u);
  EXPECT_LT(R.Source.size(), 64 * Opts.MaxProgramStmts);
  CheckedProgram P = checkProgram(R.Source);
  EXPECT_TRUE(P.ok()) << P.Error;

  // Short chains are far below the default budget and integrate fully.
  EXPECT_TRUE(inlineSource(callChain(50)).fullyIntegrated());
}

TEST(Inliner, GlobalsUntouchedByRenaming) {
  const char *Source = R"(global counter
proc main()
  counter = 0
  call bump()
  call bump()
  print counter
end
proc bump()
  counter = counter + 1
end
)";
  InlineResult R = inlineSource(Source);
  EXPECT_TRUE(R.fullyIntegrated());
  // After full integration, intraprocedural propagation sees
  // counter = 2 at the print.
  EXPECT_GT(intraCount(R.Source), 0u);
}

TEST(Inliner, PreservesObservableSemanticsUnderAnalysis) {
  // The interprocedural analyzer over the original program and the
  // intraprocedural analyzer over the integrated program must agree on
  // the constants at corresponding prints (spot-checked via transformed
  // source).
  const char *Source = R"(global base
proc main()
  base = 50
  call work(4)
end
proc work(k)
  print k * base
end
)";
  PipelineOptions Ip;
  Ip.EmitTransformedSource = true;
  PipelineResult Original = runPipeline(Source, Ip);
  ASSERT_TRUE(Original.Ok);
  EXPECT_NE(Original.TransformedSource.find("print 4 * 50"),
            std::string::npos);

  InlineResult R = inlineSource(Source);
  PipelineOptions Intra;
  Intra.IntraproceduralOnly = true;
  Intra.EmitTransformedSource = true;
  PipelineResult Integrated = runPipeline(R.Source, Intra);
  ASSERT_TRUE(Integrated.Ok);
  EXPECT_NE(Integrated.TransformedSource.find("print 4 * 50"),
            std::string::npos)
      << Integrated.TransformedSource;
}

TEST(Inliner, SkippedCallInsideIntegratedBodyStaysResolved) {
  // A recursive callee is kept (not integrated), but the procedure
  // containing that kept call is itself integrated into main. Cloning
  // the kept CallStmt must preserve its resolved callee: the second
  // splice pass indexes its bookkeeping by callee id, and an unresolved
  // clone used to index it with the invalid sentinel (out-of-range
  // crash on oracle fuzz seed 22).
  const char *Source = R"(proc main()
  call a(3)
end
proc a(x)
  call r(x)
end
proc r(n)
  if (n > 0) then
    print n
    call r(n - 1)
  end if
end
)";
  InlineResult R = inlineSource(Source);
  EXPECT_EQ(R.InlinedCalls, 1u); // a into main; r stays.
  DiagnosticEngine Diags;
  auto Ctx = parseProgram(R.Source, Diags);
  Sema::run(*Ctx, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str() << "\n" << R.Source;
  EXPECT_NE(R.Source.find("call r"), std::string::npos) << R.Source;
}

TEST(Inliner, DoubleInliningOfSameCalleeGetsDistinctNames) {
  const char *Source = R"(proc main()
  call f(1)
  call f(2)
end
proc f(x)
  integer s
  s = x * 10
  print s
end
)";
  InlineResult R = inlineSource(Source);
  EXPECT_EQ(R.InlinedCalls, 2u);
  DiagnosticEngine Diags;
  auto Ctx = parseProgram(R.Source, Diags);
  Sema::run(*Ctx, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str() << "\n" << R.Source;
  // Both clones' constants are visible intraprocedurally.
  EXPECT_EQ(intraCount(R.Source), 4u); // x-use and s-use per clone.
}
