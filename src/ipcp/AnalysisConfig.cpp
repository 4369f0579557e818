//===- ipcp/AnalysisConfig.cpp - One definition of a configuration -------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "ipcp/AnalysisConfig.h"

#include <algorithm>
#include <optional>
#include <ostream>

using namespace ipcp;

namespace {

template <typename E> struct Token {
  E Value;
  const char *Text;
  /// Driver usage line of --<Text>; null when the token has no flag.
  const char *Help = nullptr;
};

constexpr Token<JumpFunctionKind> KindTokens[] = {
    {JumpFunctionKind::Literal, "literal"},
    {JumpFunctionKind::IntraConst, "intra"},
    {JumpFunctionKind::PassThrough, "pass"},
    {JumpFunctionKind::Polynomial, "poly"},
};

constexpr Token<SolverStrategy> StrategyTokens[] = {
    {SolverStrategy::Worklist, "worklist"},
    {SolverStrategy::RoundRobin, "round-robin", "naive fixpoint strategy"},
    {SolverStrategy::BindingGraph, "binding-graph",
     "binding multi-graph fixpoint strategy"},
};

template <typename E, size_t N>
const char *tokenOf(const Token<E> (&Table)[N], E Value) {
  for (const Token<E> &T : Table)
    if (T.Value == Value)
      return T.Text;
  return "?";
}

template <typename E, size_t N>
std::optional<E> parseToken(const Token<E> (&Table)[N],
                            std::string_view Text) {
  for (const Token<E> &T : Table)
    if (Text == T.Text)
      return T.Value;
  return std::nullopt;
}

/// "a|b|c" over a token table.
template <typename E, size_t N>
std::string choices(const Token<E> (&Table)[N]) {
  std::string S;
  for (const Token<E> &T : Table)
    S += (S.empty() ? "" : "|") + std::string(T.Text);
  return S;
}

} // namespace

const char *ipcp::jumpFunctionKindToken(JumpFunctionKind K) {
  return tokenOf(KindTokens, K);
}

const char *ipcp::solverStrategyToken(SolverStrategy S) {
  return tokenOf(StrategyTokens, S);
}

std::optional<JumpFunctionKind>
ipcp::parseJumpFunctionKindToken(std::string_view Text) {
  return parseToken(KindTokens, Text);
}

std::optional<SolverStrategy>
ipcp::parseSolverStrategyToken(std::string_view Text) {
  return parseToken(StrategyTokens, Text);
}

std::string ipcp::jumpFunctionKindChoices() { return choices(KindTokens); }

std::string ipcp::solverStrategyChoices() { return choices(StrategyTokens); }

ConfigArg ipcp::parseConfigArg(std::string_view Arg, PipelineOptions &Opts,
                               std::string &Error) {
  if (Arg.substr(0, 5) == "--jf=") {
    std::optional<JumpFunctionKind> K = parseToken(KindTokens, Arg.substr(5));
    if (!K) {
      Error = "unknown jump function kind '" + std::string(Arg.substr(5)) +
              "'";
      return ConfigArg::Invalid;
    }
    Opts.Kind = *K;
    return ConfigArg::Applied;
  }
  for (const AnalysisFlag &F : AnalysisFlags)
    if (Arg == F.Cli) {
      Opts.*F.Member = !flagDefault(F);
      return ConfigArg::Applied;
    }
  if (Arg.substr(0, 2) == "--")
    for (const Token<SolverStrategy> &S : StrategyTokens)
      if (S.Help && Arg.substr(2) == S.Text) {
        Opts.Strategy = S.Value;
        return ConfigArg::Applied;
      }
  return ConfigArg::NotConfig;
}

void ipcp::printConfigUsage(std::ostream &OS) {
  auto Line = [&OS](std::string Flag, const char *Help) {
    Flag.resize(std::max<size_t>(Flag.size(), 13), ' ');
    OS << "  " << Flag << "  " << Help << '\n';
  };
  Line("--jf=<" + choices(KindTokens) + ">", "forward jump function kind");
  for (const AnalysisFlag &F : AnalysisFlags)
    Line(F.Cli, F.Help);
  for (const Token<SolverStrategy> &S : StrategyTokens)
    if (S.Help)
      Line(std::string("--") + S.Text, S.Help);
}

unsigned ipcp::jumpFunctionFlagBits(const JumpFunctionOptions &Opts) {
  unsigned Bits = 0;
  for (const AnalysisFlag &F : AnalysisFlags)
    if (F.JumpFunctionOption)
      Bits = Bits << 1 |
             Opts.*static_cast<bool JumpFunctionOptions::*>(F.Member);
  return Bits;
}
