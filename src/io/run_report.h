// Schema-versioned JSON run reports — the contract between the tools
// that emit observability data (rdfast_cli --stats-json, the bench_*
// harnesses via --json) and whatever consumes it (scripts/run_bench.sh,
// dashboards, the golden-schema tests).
//
// Every report is a JSON object with the shared envelope
//
//   {
//     "schema_version": 1,
//     "kind": "classify_run" | "atpg_run" | "bench",
//     ...kind-specific payload...
//   }
//
// and validate_run_report() checks exactly that contract, so any file
// this layer writes can be round-tripped through parse_json +
// validate_run_report (rdfast_cli validate-json does precisely this).
//
// Number handling rules the builders guarantee:
//   * BigUint path totals serialize as exact decimal number tokens —
//     never rounded through a double;
//   * rd statistics of an incomplete (work-limit aborted) or pathless
//     run serialize as explicit nulls, never 0-that-means-unknown and
//     never a NaN/Inf token (the JsonValue layer enforces the latter).
#pragma once

#include <string>
#include <vector>

#include "atpg/testset.h"
#include "cache/cone_cache.h"
#include "cache/eco_classify.h"
#include "core/classify.h"
#include "core/heuristics.h"
#include "core/resilient.h"
#include "io/json_writer.h"
#include "util/exec_guard.h"
#include "util/metrics.h"

namespace rd {

/// Bump when a field is renamed/removed or its meaning changes; adding
/// new optional fields is backward compatible and does not bump.
/// v2: classify payloads and atpg blocks carry a required
/// "abort_reason" (null on completed runs, else the AbortReason name),
/// and classify_run reports may carry a "resilient" object describing
/// the degradation ladder.
/// v2 additions (no bump — new kinds and optional fields only): the
/// serve protocol's "serve_ack" and "serve_error" kinds, and an
/// optional "serve" object ({"id", "cache_hit", ...}) on classify_run
/// and atpg_run reports, so every daemon response frame validates
/// against this schema.
/// Further v2 additions (no bump): an optional "eco" object on
/// classify_run reports (incremental-run cache counters plus the typed
/// cone-cache recovery ladder, see eco_json), an optional "cone_cache"
/// object inside "serve" payloads, and optional "cache_evictions" /
/// "cache_failures" counters there (the CircuitCache verdict beyond
/// plain hit/miss).
/// Earlier v2 builds could emit optional "closure" objects in classify,
/// eco and serve payloads, and an optional "learned" object
/// ({"assignments", "dropped"}) in classify payloads; they are no
/// longer produced, and a report still carrying one stays valid
/// (unknown keys are ignored), so this needs no bump either.
/// Further v2 additions (no bump): an optional "memo" object inside
/// classify payloads ({"lookups", "hits", "replayed_work"}), present
/// only when the run was eligible for the subtree-replay cache; its
/// parallel counts are schedule-dependent, like "workers".
inline constexpr std::uint64_t kRunReportSchemaVersion = 2;

/// The shared envelope: {"schema_version": N, "kind": kind}.
JsonValue run_report_envelope(const std::string& kind);

/// kNone serializes as null, every other reason as its stable name
/// ("deadline", "work_budget", "memory", "cancelled").
JsonValue abort_reason_json(AbortReason reason);

/// Degradation-ladder record for classify_run reports: {"engine":
/// rung-that-answered, "degraded_from": strongest attempted rung (null
/// when it answered itself), "abort_reason": why it was abandoned}.
JsonValue resilient_json(const ResilientClassifyResult& result);

/// One ClassifyResult as a JSON object (shared by every report kind):
/// kept_paths, total_logical (exact decimal token), rd_paths /
/// rd_percent (null unless the run completed with finite values),
/// completed, work, wall_seconds, implication counters, and a workers
/// array on parallel runs.
JsonValue classify_result_json(const ClassifyResult& result);

/// "classify_run" report for one end-to-end RD identification.
JsonValue classify_run_report(const std::string& circuit_name,
                              const std::string& method,
                              const RdIdentification& rd,
                              const MetricsRegistry* metrics = nullptr);

/// "atpg_run" report: classification plus the generated test set.
JsonValue atpg_run_report(const std::string& circuit_name,
                          const RdIdentification& rd,
                          const GeneratedTestSet& set,
                          const MetricsRegistry* metrics = nullptr);

/// Optional "eco" object for classify_run reports of incremental runs:
/// {"cones", "hits", "misses", "stored", "stale_loaded", "records",
/// "recovery": {typed ladder counters}}.  The recovery block is the
/// run report's record of every damaged cache artifact the store
/// survived — the acceptance contract of DESIGN.md §13.
JsonValue eco_json(const EcoStats& stats,
                   const ConeCacheStore::Stats& store);

/// "bench" report envelope with an empty "rows" array; the bench
/// harness appends one object per table row.
JsonValue bench_report(const std::string& bench_name);

/// "serve_ack" frame: a daemon's non-job response (ping, shutdown,
/// validate, stats), still carrying the schema envelope so every frame
/// a client reads passes validate_run_report.  `has_id` false maps the
/// id to null (requests that never carried one).
JsonValue serve_ack_report(std::uint64_t id, bool has_id = true);

/// "serve_error" frame: a typed refusal (parse error, bad request
/// field, oversized frame) with a human-readable message and a stable
/// machine code ("parse_error", "bad_request", "frame_too_large",
/// "shutting_down", "internal").
JsonValue serve_error_report(std::uint64_t id, bool has_id,
                             const std::string& code,
                             const std::string& message);

/// A metrics-registry snapshot as {"counters": {...}, "timers":
/// {"name": {"seconds": s, "count": n}, ...}, "gauges": {...}}.
JsonValue metrics_json(const MetricsRegistry& registry);

/// Folds one classify run's counters and timings into `registry`
/// (run-granularity: one call per run, never per event).  Metric names
/// are documented in DESIGN.md.
void record_classify_metrics(const ClassifyResult& result,
                             MetricsRegistry& registry);

/// Structural validation of a report against the envelope + the
/// kind-specific required keys.  Returns human-readable problems;
/// empty means the report conforms.
std::vector<std::string> validate_run_report(const JsonValue& report);

/// Serializes `value` (pretty, trailing newline) to `path`; throws
/// std::runtime_error on I/O failure.
void write_json_file(const std::string& path, const JsonValue& value);

}  // namespace rd
