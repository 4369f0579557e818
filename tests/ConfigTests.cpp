//===- tests/ConfigTests.cpp - Analysis configuration surfaces ------------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Table-driven round trips over ipcp/AnalysisConfig.h: every flag row,
/// jump-function kind and solver strategy, set alone, parses to the same
/// PipelineOptions from the driver command line and a serve request
/// line; each surface re-serializes byte-identically; and the setting
/// splits the reply-cache key and, for jump-function options, the
/// session's jump-function base key from the default configuration.
///
//===----------------------------------------------------------------------===//

#include "ipcp/AnalysisConfig.h"
#include "serve/Protocol.h"
#include "serve/Render.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

using namespace ipcp;

namespace {

/// The driver arguments that select \p Opts: one per non-default field.
std::vector<std::string> cliArgs(const PipelineOptions &Opts) {
  const PipelineOptions Default;
  std::vector<std::string> Args;
  if (Opts.Kind != Default.Kind)
    Args.push_back(std::string("--jf=") + jumpFunctionKindToken(Opts.Kind));
  for (const AnalysisFlag &F : AnalysisFlags)
    if (Opts.*F.Member != flagDefault(F))
      Args.push_back(F.Cli);
  if (Opts.Strategy != Default.Strategy)
    Args.push_back(std::string("--") + solverStrategyToken(Opts.Strategy));
  return Args;
}

PipelineOptions parseCli(const std::vector<std::string> &Args) {
  PipelineOptions Opts;
  std::string Error;
  for (const std::string &Arg : Args)
    EXPECT_EQ(parseConfigArg(Arg, Opts, Error), ConfigArg::Applied)
        << Arg << ": " << Error;
  return Opts;
}

std::string requestLine(const PipelineOptions &Opts) {
  ServeRequest Req;
  Req.Id = "cfg";
  Req.Method = ServeMethod::AnalyzeSource;
  Req.Source = "proc main()\nend\n";
  Req.Config = Opts;
  return serializeServeRequest(Req);
}

/// Checks every surface on \p Opts, a configuration that differs from
/// the default in one field. \p InJfBase: the field keys the session's
/// jump-function base (every jump-function option but Kind, which the
/// base is built without).
void checkSurfaces(const PipelineOptions &Opts, bool InJfBase,
                   const std::string &What) {
  SCOPED_TRACE(What);
  const PipelineOptions Default;
  const ReportOptions Report;

  // Command line.
  std::vector<std::string> Args = cliArgs(Opts);
  ASSERT_EQ(Args.size(), 1u);
  PipelineOptions FromCli = parseCli(Args);
  EXPECT_EQ(FromCli, Opts);
  EXPECT_EQ(cliArgs(FromCli), Args);

  // Serve request line.
  std::string Line = requestLine(Opts);
  ServeRequest Back;
  std::string Error;
  ASSERT_TRUE(parseServeRequest(Line, Back, Error)) << Error;
  EXPECT_EQ(Back.Config, Opts);
  EXPECT_EQ(requestLine(Back.Config), Line);
  EXPECT_NE(configKey(Opts, Report), configKey(Default, Report));

  EXPECT_EQ(jumpFunctionFlagBits(Opts) != jumpFunctionFlagBits(Default),
            InJfBase);
}

} // namespace

TEST(AnalysisConfig, EveryFlagRoundTripsOnEverySurface) {
  for (const AnalysisFlag &F : AnalysisFlags) {
    PipelineOptions Opts;
    Opts.*F.Member = !flagDefault(F);
    checkSurfaces(Opts, F.JumpFunctionOption, F.Key);
    PipelineResult Result;
    EXPECT_NE(renderAnalysisReport(Opts, Result, ReportOptions()),
              renderAnalysisReport(PipelineOptions(), Result, ReportOptions()))
        << F.Key;
  }
}

TEST(AnalysisConfig, EveryKindAndStrategyRoundTrips) {
  for (JumpFunctionKind K :
       {JumpFunctionKind::Literal, JumpFunctionKind::IntraConst,
        JumpFunctionKind::PassThrough}) {
    PipelineOptions Opts;
    Opts.Kind = K;
    checkSurfaces(Opts, /*InJfBase=*/false, jumpFunctionKindToken(K));
  }
  for (SolverStrategy S :
       {SolverStrategy::RoundRobin, SolverStrategy::BindingGraph}) {
    PipelineOptions Opts;
    Opts.Strategy = S;
    checkSurfaces(Opts, /*InJfBase=*/false, solverStrategyToken(S));
  }
}

TEST(AnalysisConfig, DefaultsAreElidedOnlyWhereTheTableSays) {
  std::string Line = requestLine(PipelineOptions());
  for (const AnalysisFlag &F : AnalysisFlags) {
    std::string Member = std::string("\"") + F.Key + "\":";
    EXPECT_EQ(Line.find(Member) != std::string::npos, F.AlwaysWritten)
        << F.Key;
  }
}

TEST(AnalysisConfig, SpellingsAreUnique) {
  std::set<std::string> Keys, Clis;
  for (const AnalysisFlag &F : AnalysisFlags) {
    EXPECT_TRUE(Keys.insert(F.Key).second) << F.Key;
    EXPECT_TRUE(Clis.insert(F.Cli).second) << F.Cli;
  }
  EXPECT_EQ(Keys.count("jf") + Keys.count("strategy"), 0u);
}

TEST(AnalysisConfig, RejectsBadSpellings) {
  PipelineOptions Opts;
  std::string Error;
  EXPECT_EQ(parseConfigArg("--jf=cubic", Opts, Error), ConfigArg::Invalid);
  EXPECT_EQ(Error, "unknown jump function kind 'cubic'");
  EXPECT_EQ(parseConfigArg("--worklist", Opts, Error), ConfigArg::NotConfig);
  EXPECT_EQ(parseConfigArg("--rjf", Opts, Error), ConfigArg::NotConfig);
  EXPECT_EQ(Opts, PipelineOptions());
}
