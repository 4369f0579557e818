//===- perfbench/src/Replica.h - Traced pipeline reassembly -----*- C++ -*-===//
//
// The traced run rebuilds one analysis from the public calls of each layer
// (lang, ir, analysis, ipcp) with a span around every call, in the order
// runPipelineOnSession makes them. Its answers must match the untraced
// call on the same input, or the per-layer numbers describe a different
// program and the traced run fails.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REPLICA_H
#define PERFBENCH_REPLICA_H

#include "Common.h"

#include "ipcp/AnalysisSession.h"
#include "ipcp/Pipeline.h"
#include "lang/Ast.h"
#include "lang/Sema.h"

#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// A parsed and checked program (span names lang.parse, lang.sema; the
/// token count comes from a separate Lexer::lexAll under measure.lex).
struct Frontend {
  std::unique_ptr<ipcp::AstContext> Ctx;
  ipcp::SymbolTable Symbols;
  std::string Error;
  size_t Tokens = 0;
};
Frontend replicaFrontend(std::string_view Source, Trace *T);

/// What the agreement check compares, plus the solver's evaluation count.
struct Answer {
  bool Ok = false;
  std::string Error;
  unsigned Substituted = 0;
  std::vector<std::vector<std::pair<std::string, int64_t>>> Constants;
  unsigned JfEvaluations = 0;
};

Answer answerOf(const ipcp::PipelineResult &R);

/// Reassembles runPipelineOnSession(Session, Opts) from public calls.
/// \p Instrs, when given, receives the lowered module's instruction count.
Answer replicaPipeline(ipcp::AnalysisSession &Session,
                       const ipcp::PipelineOptions &Opts, Trace *T,
                       size_t *Instrs = nullptr);

/// Empty when the two answers agree, else a description of the first
/// difference.
std::string disagreement(const Answer &Replica, const Answer &Untraced);

/// SessionStats summed over several sessions.
void accumulate(ipcp::SessionStats &Sum, const ipcp::SessionStats &S);

/// Records the ipcp.*_reuse_ratio and ipcp.memo_hit_ratio metrics of
/// \p S, each with its base.
void reuseMetrics(Outcome &O, const ipcp::SessionStats &S);

/// Records the trace.coverage and trace.gap_ratio metrics of a traced
/// phase: span time over \p WallMs, and the replica's layer spans against
/// the untraced reference spans ("ref.untraced") on the same inputs.
void traceMetrics(Outcome &O, const Trace &T, double WallMs);

/// Records \p Span's summed time divided by \p Ops as per-layer metric
/// \p Metric (self time per operation).
void perOp(Outcome &O, const Trace &T, const char *Metric, uint64_t Ops,
           std::initializer_list<const char *> Spans);

/// Records the per-layer time metrics shared by every replica: lang, ir,
/// analysis and ipcp spans per operation, and tokens per second.
void layerMetrics(Outcome &O, const Trace &T, uint64_t Ops, uint64_t Tokens);

} // namespace perfbench

#endif // PERFBENCH_REPLICA_H
