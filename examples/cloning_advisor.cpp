//===- examples/cloning_advisor.cpp - Goal-directed procedure cloning -----===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Metzger & Stroud (paper reference [13]) used interprocedural
/// constants to guide procedure cloning in the CONVEX Application
/// Compiler: when different call sites pass *different* constants to the
/// same procedure, the meet drives the parameter to BOTTOM and every
/// constant is lost — unless the procedure is cloned per constant value.
///
/// This example drops below the pipeline API: it builds jump functions,
/// runs the solver, then re-evaluates each call edge's jump function
/// under the final VAL sets to find parameters that are constant along
/// every edge individually but BOTTOM after the meet. Those are the
/// cloning opportunities, reported with the value each clone would see.
///
//===----------------------------------------------------------------------===//

#include "ipcp/AnalysisSession.h"
#include "ipcp/Pipeline.h"

#include <iostream>
#include <map>
#include <set>

using namespace ipcp;

static const char *Source = R"(program fft
global logn

proc main()
  logn = 10
  call pass(2, 1)            ! radix-2 pass
  call pass(4, 0)            ! radix-4 pass
  call pass(2, 0)
  call finish(1024)
end

proc pass(radix, first)
  integer stride, i
  stride = radix * 2
  if (first == 1) then
    print stride
  end if
  do i = 1, stride
    call butterfly(radix, i)
  end do
end

proc butterfly(r, idx)
  print r * idx
end

proc finish(n)
  print n
end
)";

int main() {
  std::cout << "=== cloning advisor: constants lost to the meet ===\n\n"
            << Source << '\n';

  CheckedProgram Checked = checkProgram(Source);
  if (!Checked.ok()) {
    std::cerr << Checked.Error;
    return 1;
  }
  const std::unique_ptr<AstContext> &Ctx = Checked.Ctx;
  const SymbolTable &Symbols = Checked.Symbols;

  AnalysisSession Session(*Ctx, Symbols);
  const CallGraph &CG = Session.callGraph();
  ProgramJumpFunctions Jfs =
      buildJumpFunctions(Session, JumpFunctionOptions());
  SolveResult Solve = solveConstants(Symbols, CG, Jfs);

  // For every BOTTOM cell, gather the per-edge values.
  unsigned Opportunities = 0;
  for (ProcId P = 0; P != CG.numProcs(); ++P) {
    if (!CG.isReachable(P))
      continue;
    const auto &Formals = Symbols.formals(P);

    // Map each formal index to the set of constants individual edges
    // deliver.
    std::map<uint32_t, std::set<int64_t>> EdgeConstants;
    std::map<uint32_t, unsigned> NonConstEdges;
    for (const CallSite &S : CG.callSitesOf(P)) {
      ProcId Caller = S.Caller;
      // Locate this site's jump functions (PerSite is parallel to
      // callSitesIn(Caller)).
      const auto &Sites = CG.callSitesIn(Caller);
      for (size_t I = 0; I != Sites.size(); ++I) {
        if (Sites[I].Block != S.Block || Sites[I].InstrIdx != S.InstrIdx)
          continue;
        const CallSiteJumpFunctions &SiteJfs = Jfs.PerSite[Caller][I];
        auto Env = [&](SymbolId Sym) { return Solve.valueOf(Caller, Sym); };
        for (uint32_t A = 0; A != Formals.size(); ++A) {
          LatticeValue V = SiteJfs.Args[A].eval(Env);
          if (V.isConst())
            EdgeConstants[A].insert(V.value());
          else
            ++NonConstEdges[A];
        }
      }
    }

    for (uint32_t A = 0; A != Formals.size(); ++A) {
      LatticeValue Merged = Solve.valueOf(P, Formals[A]);
      if (!Merged.isBottom())
        continue; // Already constant (or never called): nothing to gain.
      const auto &Values = EdgeConstants[A];
      if (Values.size() < 2 || NonConstEdges[A] != 0)
        continue; // Not every edge is constant: cloning will not help.
      ++Opportunities;
      std::cout << "clone candidate: " << Ctx->program().Procs[P]->name()
                << " on parameter '"
                << Symbols.symbol(Formals[A]).Name << "' — "
                << Values.size() << " clones would see {";
      bool First = true;
      for (int64_t V : Values) {
        if (!First)
          std::cout << ", ";
        First = false;
        std::cout << V;
      }
      std::cout << "}\n";
    }
  }

  std::cout << "\n" << Opportunities
            << " cloning opportunities found (expected: pass.radix {2,4} "
               "and pass.first {0,1})\n";
  return Opportunities == 2 ? 0 : 1;
}
