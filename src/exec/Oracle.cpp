//===- exec/Oracle.cpp - Translation-validation oracle --------------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "exec/Oracle.h"

#include "ipcp/Cloning.h"
#include "ipcp/Inliner.h"
#include "lang/Sema.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>

using namespace ipcp;

namespace {

/// Collects failures, keeping only the first few descriptions.
class FailureLog {
public:
  void add(const std::string &What) {
    ++Count;
    if (Count <= 4) {
      if (!Text.empty())
        Text += "\n";
      Text += What;
    } else if (Count == 5) {
      Text += "\n... (further failures suppressed)";
    }
  }

  unsigned count() const { return Count; }
  const std::string &text() const { return Text; }

private:
  unsigned Count = 0;
  std::string Text;
};

std::string traceSummary(const RunResult &R) {
  std::ostringstream OS;
  OS << R.str() << ", prints:";
  size_t N = std::min<size_t>(R.Prints.size(), 8);
  for (size_t I = 0; I != N; ++I)
    OS << ' ' << R.Prints[I];
  if (R.Prints.size() > N)
    OS << " ...";
  return OS.str();
}

/// Compares a transformed run against the reference. Exact agreement is
/// required unless a resource limit truncated one of the runs, in which
/// case prefix agreement suffices (the budget is not semantics).
bool tracesAgree(const RunResult &Ref, const RunResult &Got,
                 std::string &Why) {
  if (isResourceLimit(Ref.Status) || isResourceLimit(Got.Status)) {
    size_t N = std::min(Ref.Prints.size(), Got.Prints.size());
    for (size_t I = 0; I != N; ++I)
      if (Ref.Prints[I] != Got.Prints[I]) {
        Why = "print #" + std::to_string(I) + " differs under a "
              "resource-limited run: reference " +
              std::to_string(Ref.Prints[I]) + ", transformed " +
              std::to_string(Got.Prints[I]);
        return false;
      }
    return true;
  }
  if (Ref.Status != Got.Status) {
    Why = std::string("termination status differs: reference ") +
          runStatusName(Ref.Status) + ", transformed " +
          runStatusName(Got.Status);
    return false;
  }
  if (Ref.Prints != Got.Prints) {
    size_t N = std::min(Ref.Prints.size(), Got.Prints.size());
    size_t I = 0;
    while (I != N && Ref.Prints[I] == Got.Prints[I])
      ++I;
    if (I == N)
      Why = "trace lengths differ: reference " +
            std::to_string(Ref.Prints.size()) + " prints, transformed " +
            std::to_string(Got.Prints.size());
    else
      Why = "print #" + std::to_string(I) + " differs: reference " +
            std::to_string(Ref.Prints[I]) + ", transformed " +
            std::to_string(Got.Prints[I]);
    return false;
  }
  return true;
}

} // namespace

OracleResult ipcp::validateTranslation(std::string_view Source,
                                       const OracleOptions &Opts) {
  OracleResult R;
  FailureLog Failures;

  // Step 0: the reference program and the copy the analyzer may mutate.
  CheckedProgram Ref = checkProgram(Source);
  if (!Ref.ok()) {
    R.Error = "source does not parse: " + Ref.Error;
    return R;
  }
  CheckedProgram Analyzed = checkProgram(Source);

  PipelineOptions POpts = Opts.Pipeline;
  POpts.EmitTransformedSource = true;
  PipelineResult P =
      runPipelineOnAst(*Analyzed.Ctx, Analyzed.Symbols, POpts);
  if (!P.Ok) {
    R.Error = "pipeline failed: " + P.Error;
    return R;
  }

  // Resolve the CONSTANTS(p) claims back to symbol ids of the analyzed
  // program (names are unambiguous: formals may not shadow globals).
  const Program &AnProg = Analyzed.Ctx->program();
  std::vector<std::vector<std::pair<SymbolId, int64_t>>> EntryClaims(
      AnProg.Procs.size());
  for (size_t Pid = 0; Pid != P.Constants.size(); ++Pid) {
    for (const auto &[Name, Value] : P.Constants[Pid]) {
      SymbolId Found = InvalidSymbol;
      for (SymbolId Sym : Analyzed.Symbols.formals(ProcId(Pid)))
        if (Analyzed.Symbols.symbol(Sym).Name == Name)
          Found = Sym;
      if (Found == InvalidSymbol)
        for (SymbolId Sym : Analyzed.Symbols.globalScalars())
          if (Analyzed.Symbols.symbol(Sym).Name == Name)
            Found = Sym;
      if (Found != InvalidSymbol)
        EntryClaims[Pid].push_back({Found, Value});
    }
  }

  // Step 3 prep: the transformed source must reparse cleanly.
  CheckedProgram Transformed = checkProgram(P.TransformedSource);
  if (Opts.CheckTransformedSource && !Transformed.ok())
    Failures.add("transformed source does not reparse: " +
                 Transformed.Error);

  // Step 4 prep: the inlined and cloned programs.
  CheckedProgram Inlined;
  if (Opts.CheckInliner) {
    InlineResult IR = inlineProgram(*Ref.Ctx, Ref.Symbols);
    Inlined = checkProgram(IR.Source);
    if (!Inlined.ok())
      Failures.add("inlined program does not reparse: " + Inlined.Error);
  }
  CheckedProgram Cloned;
  if (Opts.CheckCloning) {
    CloneResult CR = cloneForConstants(Source);
    if (!CR.Ok) {
      Failures.add("cloning transform failed: " + CR.Error);
    } else {
      Cloned = checkProgram(CR.Source);
      if (!Cloned.ok())
        Failures.add("cloned program does not reparse: " + Cloned.Error);
    }
  }

  // Runners are built once and reused across seeds: for the VM engine
  // this compiles each program exactly once per validation.
  ProgramRunner RefRunner(Ref.Ctx->program(), Ref.Symbols, Opts.Engine);
  ProgramRunner AnRunner(AnProg, Analyzed.Symbols, Opts.Engine);
  std::optional<ProgramRunner> TrRunner, InRunner, ClRunner;
  if (Opts.CheckTransformedSource && Transformed.ok())
    TrRunner.emplace(Transformed.Ctx->program(), Transformed.Symbols,
                     Opts.Engine);
  if (Opts.CheckInliner && Inlined.ok())
    InRunner.emplace(Inlined.Ctx->program(), Inlined.Symbols, Opts.Engine);
  if (Opts.CheckCloning && Cloned.ok())
    ClRunner.emplace(Cloned.Ctx->program(), Cloned.Symbols, Opts.Engine);

  for (uint64_t Seed : Opts.ReadSeeds) {
    RunOptions RO;
    RO.Limits = Opts.Limits;
    RO.ReadSeed = Seed;

    RunResult RefRun = RefRunner.run(RO);
    ++R.RunsExecuted;

    auto compare = [&](const char *What, const RunResult &Got) {
      ++R.TraceComparisons;
      std::string Why;
      if (!tracesAgree(RefRun, Got, Why)) {
        ++R.TraceDivergences;
        Failures.add(std::string(What) + " (seed " +
                     std::to_string(Seed) + "): " + Why +
                     "\n  reference:   " + traceSummary(RefRun) +
                     "\n  transformed: " + traceSummary(Got));
      }
    };

    // Step 2: replay the analyzed AST, checking every claim.
    {
      ExecHooks Hooks;
      Hooks.OnVarUse = [&](ExprId Id, int64_t Value) {
        auto It = P.Substitutions.find(Id);
        if (It == P.Substitutions.end())
          return;
        ++R.SubstitutedUseChecks;
        if (Value != It->second) {
          ++R.ConstantMismatches;
          Failures.add("substituted use #" + std::to_string(Id) +
                       " (seed " + std::to_string(Seed) +
                       "): claimed constant " +
                       std::to_string(It->second) + ", observed " +
                       std::to_string(Value));
        }
      };
      Hooks.OnProcEntry =
          [&](ProcId Pid,
              const std::function<const int64_t *(SymbolId)> &Lookup) {
            for (const auto &[Sym, Value] : EntryClaims[Pid]) {
              const int64_t *Cell = Lookup(Sym);
              if (!Cell)
                continue;
              ++R.EntryConstantChecks;
              if (*Cell != Value) {
                ++R.ConstantMismatches;
                Failures.add(
                    "CONSTANTS(" + AnProg.Procs[Pid]->name() + ") entry " +
                    Analyzed.Symbols.symbol(Sym).Name + "=" +
                    std::to_string(Value) + " (seed " +
                    std::to_string(Seed) + "): observed " +
                    std::to_string(*Cell) + " on entry");
              }
            }
          };
      RunResult AnRun = AnRunner.run(RO, &Hooks);
      ++R.RunsExecuted;
      compare("analyzed/DCE'd program trace", AnRun);
    }

    // Step 3: the textually substituted source.
    if (TrRunner) {
      RunResult TrRun = TrRunner->run(RO);
      ++R.RunsExecuted;
      compare("transformed-source trace", TrRun);
    }

    // Step 4: the inliner and cloning transforms.
    if (InRunner) {
      RunResult InRun = InRunner->run(RO);
      ++R.RunsExecuted;
      compare("inlined program trace", InRun);
    }
    if (ClRunner) {
      RunResult ClRun = ClRunner->run(RO);
      ++R.RunsExecuted;
      compare("cloned program trace", ClRun);
    }
  }

  R.Ok = Failures.count() == 0;
  R.Error = Failures.text();
  return R;
}
