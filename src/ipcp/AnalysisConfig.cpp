//===- ipcp/AnalysisConfig.cpp - One definition of a configuration -------===//
//
// Part of the ipcp project (Grove & Torczon, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "ipcp/AnalysisConfig.h"

#include "serve/Json.h"

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

bool onSurface(const AnalysisFlag &F, ConfigSurface Surface) {
  return Surface == ConfigSurface::Request || F.JumpFunctionOption;
}

} // namespace

const char *ipcp::jumpFunctionKindToken(JumpFunctionKind K) {
  return tokenOf(KindTokens, K);
}

const char *ipcp::solverStrategyToken(SolverStrategy S) {
  return tokenOf(StrategyTokens, S);
}

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

JsonValue ipcp::configToJson(const PipelineOptions &Opts,
                             ConfigSurface Surface) {
  JsonValue Cfg = JsonValue::object();
  Cfg.set("jf", jumpFunctionKindToken(Opts.Kind));
  for (const AnalysisFlag &F : AnalysisFlags) {
    bool V = Opts.*F.Member;
    if (onSurface(F, Surface) && (F.AlwaysWritten || V != flagDefault(F)))
      Cfg.set(F.Key, JsonValue(V));
  }
  if (Surface == ConfigSurface::Request)
    Cfg.set("strategy", solverStrategyToken(Opts.Strategy));
  return Cfg;
}

bool ipcp::configFromJson(const JsonValue &Cfg, ConfigSurface Surface,
                          PipelineOptions &Opts, std::string &Error) {
  for (const auto &[Key, V] : Cfg.members()) {
    if (Key == "jf") {
      std::optional<JumpFunctionKind> K =
          V.isString() ? parseToken(KindTokens, V.str()) : std::nullopt;
      if (!K) {
        Error = "config.jf must be " + choices(KindTokens);
        return false;
      }
      Opts.Kind = *K;
      continue;
    }
    if (Key == "strategy" && Surface == ConfigSurface::Request) {
      std::optional<SolverStrategy> S =
          V.isString() ? parseToken(StrategyTokens, V.str()) : std::nullopt;
      if (!S) {
        Error = "config.strategy must be " + choices(StrategyTokens);
        return false;
      }
      Opts.Strategy = *S;
      continue;
    }
    const AnalysisFlag *Flag = nullptr;
    for (const AnalysisFlag &F : AnalysisFlags)
      if (Key == F.Key && onSurface(F, Surface))
        Flag = &F;
    if (!Flag) {
      Error = "unknown config field '" + Key + "'";
      return false;
    }
    if (!V.isBool()) {
      Error = "config." + Key + " must be a boolean";
      return false;
    }
    Opts.*Flag->Member = V.boolean();
  }
  if (Surface == ConfigSurface::Summary) {
    if (!Cfg.find("jf")) {
      Error = "missing config field 'jf'";
      return false;
    }
    for (const AnalysisFlag &F : AnalysisFlags)
      if (onSurface(F, Surface) && F.AlwaysWritten && !Cfg.find(F.Key)) {
        Error = std::string("missing config field '") + F.Key + "'";
        return false;
      }
  }
  return true;
}

unsigned ipcp::jumpFunctionFlagBits(const JumpFunctionOptions &Opts) {
  unsigned Bits = 0;
  for (const AnalysisFlag &F : AnalysisFlags)
    if (F.JumpFunctionOption)
      Bits = Bits << 1 |
             Opts.*static_cast<bool JumpFunctionOptions::*>(F.Member);
  return Bits;
}
