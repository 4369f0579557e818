//===- tests/SubstitutionTests.cpp - ipcp/Substitution unit tests ---------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "ipcp/Substitution.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

using namespace ipcp;
using namespace ipcp::test;

namespace {

struct Counted {
  FullAnalysis A;
  ProgramJumpFunctions Jfs;
  SolveResult Solve;
  SubstitutionResult Subs;
};

Counted countWith(const std::string &Source, bool UseRjf = true) {
  Counted C;
  C.A = analyze(Source);
  AnalysisSession Session(*C.A.Ctx, C.A.Symbols);
  JumpFunctionOptions Opts;
  Opts.UseReturnJumpFunctions = UseRjf;
  C.Jfs = buildJumpFunctions(Session, Opts);
  C.Solve = solveConstants(C.A.Symbols, *C.A.CG, C.Jfs);
  C.Subs = countSubstitutions(Session, Opts, &C.Solve,
                              UseRjf ? &C.Jfs : nullptr);
  return C;
}

} // namespace

TEST(Substitution, CountsEachConstantUseOnce) {
  Counted C = countWith(R"(proc main()
  call f(5)
end
proc f(x)
  print x
  print x + x
end
)");
  // Three textual uses of x.
  EXPECT_EQ(C.Subs.Total, 3u);
  EXPECT_EQ(C.Subs.PerProc[C.A.proc("f")], 3u);
  EXPECT_EQ(C.Subs.PerProc[C.A.proc("main")], 0u);
  EXPECT_EQ(C.Subs.Map.size(), 3u);
}

TEST(Substitution, LocalConstantsCountEverywhere) {
  Counted C = countWith(R"(proc main()
  integer n
  n = 4
  print n
  print n * n
end
)");
  EXPECT_EQ(C.Subs.Total, 3u);
}

TEST(Substitution, NonConstantUsesDoNotCount) {
  Counted C = countWith(R"(proc main()
  integer n
  read n
  print n
end
)");
  EXPECT_EQ(C.Subs.Total, 0u);
  EXPECT_TRUE(C.Subs.Map.empty());
}

TEST(Substitution, ByRefKilledActualIsNotSubstitutable) {
  Counted C = countWith(R"(proc main()
  integer v
  v = 8
  call set(v)
end
proc set(o)
  o = o + 1
end
)");
  // v is constant at the call, but set modifies it: replacing 'v' with
  // '8' would break the out-binding. Not counted.
  EXPECT_EQ(C.Subs.PerProc[C.A.proc("main")], 0u);
}

TEST(Substitution, UnmodifiedActualIsSubstitutable) {
  Counted C = countWith(R"(proc main()
  integer v
  v = 8
  call look(v)
end
proc look(p)
  print p
end
)");
  // One use in main (the actual) and one in look.
  EXPECT_EQ(C.Subs.Total, 2u);
}

TEST(Substitution, UnexecutableCodeDoesNotCount) {
  Counted C = countWith(R"(proc main()
  integer n, f
  n = 3
  f = 0
  if (f == 1) then
    print n
    print n
  end if
  print n
end
)");
  // The two uses inside the dead branch are not substituted.
  EXPECT_EQ(C.Subs.Total, 2u); // 'n' after the if + the condition use f.
}

TEST(Substitution, ConditionUsesCount) {
  Counted C = countWith(R"(proc main()
  integer f
  f = 0
  if (f == 1) then
    print 1
  end if
end
)");
  EXPECT_EQ(C.Subs.Total, 1u); // The 'f' in the condition.
  ASSERT_EQ(C.Subs.Branches.size(), 1u);
  EXPECT_FALSE(C.Subs.Branches.begin()->second);
}

TEST(Substitution, DoLoopBoundUseCounts) {
  Counted C = countWith(R"(proc main()
  integer i, n
  n = 10
  do i = 1, n
    print i
  end do
end
)");
  // The bound use of n counts; i is loop-varying.
  EXPECT_EQ(C.Subs.Total, 1u);
}

TEST(Substitution, IntraproceduralBaselineIgnoresEntrySeeds) {
  FullAnalysis A = analyze(R"(proc main()
  call f(5)
end
proc f(x)
  print x
end
)");
  AnalysisSession Session(*A.Ctx, A.Symbols);
  SubstitutionResult Subs = countSubstitutions(
      Session, JumpFunctionOptions(), /*Solve=*/nullptr, /*Jfs=*/nullptr);
  EXPECT_EQ(Subs.Total, 0u);
}

TEST(Substitution, RjfRecoveryCountsCallerUses) {
  Counted WithRjf = countWith(R"(proc main()
  integer v
  call set(v)
  print v
end
proc set(o)
  o = 3
end
)");
  EXPECT_EQ(WithRjf.Subs.Total, 1u);

  Counted NoRjf = countWith(R"(proc main()
  integer v
  call set(v)
  print v
end
proc set(o)
  o = 3
end
)",
                            /*UseRjf=*/false);
  EXPECT_EQ(NoRjf.Subs.Total, 0u);
}

TEST(Substitution, MapPointsAtRealUses) {
  Counted C = countWith(R"(proc main()
  integer n
  n = 6
  print n
end
)");
  ASSERT_EQ(C.Subs.Map.size(), 1u);
  EXPECT_EQ(C.Subs.Map.begin()->second, 6);
  // The mapped id belongs to some expression of the program (ids are
  // dense and start at 1).
  EXPECT_GE(C.Subs.Map.begin()->first, 1u);
  EXPECT_LT(C.Subs.Map.begin()->first, C.A.Ctx->numExprIds());
}

TEST(Substitution, UnreachableProceduresContributeNothing) {
  Counted C = countWith(R"(proc main()
  print 1
end
proc orphan()
  integer n
  n = 5
  print n
end
)");
  EXPECT_EQ(C.Subs.Total, 0u);
}
