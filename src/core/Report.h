//===- core/Report.h - Machine-readable analysis reports --------*- C++ -*-===//
//
// Part of the ipcp project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serializes analysis outcomes to the JSON report consumed by the
/// driver's --report-json flag, the suite checker, and the bench
/// harnesses: per-stage timings, the jump-function class histogram, the
/// full CONSTANTS(p) sets, every work counter, and (optionally) the
/// hierarchical trace. The report schema ("ipcp-report-v1") is
/// documented field by field in docs/OBSERVABILITY.md; tests round-trip
/// it through the support/Json parser.
///
//===----------------------------------------------------------------------===//

#ifndef IPCP_CORE_REPORT_H
#define IPCP_CORE_REPORT_H

#include "core/Cloning.h"
#include "core/Pipeline.h"
#include "support/Json.h"

namespace ipcp {

class Trace;

/// The analysis configuration as a JSON object.
JsonValue optionsToJson(const IPCPOptions &Opts);

/// A PipelineStatus as the report's "degradation" object: the tripped
/// limit (named after its driver flag), the stage, and the message.
JsonValue statusToJson(const PipelineStatus &Status);

/// One IPCPResult as a JSON object: totals, per-procedure CONSTANTS(p)
/// and substitution counts, the jump-function histogram, per-stage
/// timings, and the raw counters.
JsonValue resultToJson(const IPCPResult &Result);

/// A complete-propagation run: rounds, dead-code totals, aggregated
/// counters, and the final round's full result.
JsonValue completeToJson(const CompletePropagationResult &Result);

/// A cloning experiment's before/after effectiveness.
JsonValue cloningToJson(const CloningResult &Result);

/// A transform-pipeline run: the passes executed (with wall times under
/// "pass_timings_us"), the rewrite totals, and the merged counters.
JsonValue optimizationToJson(const OptimizationResult &Result);

/// Everything the driver knows about one run. Null members are omitted
/// from the report.
struct AnalysisReport {
  std::string SourceName;
  const Module *M = nullptr;
  const IPCPOptions *Opts = nullptr;
  const IPCPResult *Single = nullptr;
  const CompletePropagationResult *Complete = nullptr;
  const CloningResult *Cloning = nullptr;
  const OptimizationResult *Optimization = nullptr;
  const Trace *TraceData = nullptr;

  /// Overall run status. When null, the top-level degraded flag is
  /// derived from whichever results are present (a frontend trip that
  /// produced no result at all needs the explicit pointer).
  const PipelineStatus *Status = nullptr;
};

/// Builds the top-level "ipcp-report-v1" document.
JsonValue buildAnalysisReport(const AnalysisReport &Report);

/// Strips, in place, everything that may legitimately differ between a
/// warm (summary-cache) and a cold run of the same analysis: timings,
/// the cache object and cache_* counters, the work counters of stages a
/// warm run skips or shrinks (prop_visits, prop_evaluations,
/// prop_lowerings, prop_revisits, unique_exprs), and the trace. What
/// remains — results, CONSTANTS(p), jump-function histogram, the sccp_*
/// and prop_val_* counters — the differential test layer requires to be
/// byte-identical (docs/INCREMENTAL.md).
void normalizeReportForDiff(JsonValue &Report);

/// Zeroes, in place, every wall-clock field (the "timings_us" objects
/// and the time_* counters) so two reports of identical runs compare
/// equal; everything else — including cache statistics — is kept.
/// Driver flag --scrub-timings; the warm-determinism CI job diffs these.
void scrubReportTimings(JsonValue &Report);

/// The "ipcp-service-v1" wire envelope (docs/SERVICE.md): schema tag,
/// response sequence number, the echoed client id (when \p Id is
/// non-null), then every member of \p Body ("status", "error",
/// "report", "responses", "stats", ...) in order.
JsonValue buildServiceEnvelope(uint64_t Seq, const JsonValue *Id,
                               JsonValue Body);

/// A service response error object: {"code": Code, "message": Message,
/// "retryable": bool}. Codes are enumerated in docs/SERVICE.md
/// ("bad-json", "bad-request", "unknown-suite", "source-error", "busy",
/// "internal"); `retryable` is true for the transient codes ("busy",
/// "internal"), and busy envelopes additionally carry "retry_after_ms".
JsonValue serviceErrorObject(const std::string &Code,
                             const std::string &Message);

} // namespace ipcp

#endif // IPCP_CORE_REPORT_H
