// The classify/ATPG pipeline shared by `rdfast serve`, `rdfast request`
// and the one-shot `rdfast_cli classify`/`atpg` commands (DESIGN.md
// §12).
//
// A job is run by one typed call, Session::classify or Session::atpg:
// circuit loading (timed as `io.load`), the cache lookup, the input
// sort (build_input_sort), the classify run on the approximate engine,
// the resilient ladder or the cone-cached ECO driver, test generation,
// and report assembly.  handle() turns one request frame (JSON text)
// into a Job and a guard, makes that call and attaches the "serve"
// payload; the CLI turns its flags into the same Job and guard and
// makes the same call on a one-shot Session.  Both front ends therefore
// produce the same deterministic report fields by construction — the
// only difference a cache makes is *when* the CompiledCircuit was
// built, never what it contains.
//
// Request schema (all requests are JSON objects):
//   {"op": "ping" | "stats" | "shutdown" | "validate"
//        | "classify" | "atpg",
//    "id": <uint, optional — echoed on the response>}
// plus per-op fields:
//   validate:  "report": <object to check against the run-report schema>
//   classify:  "circuit": {"builtin": "c432"} | {"name": N, "bench": T},
//              "heuristic": "1"|"2"|"inverse"|"fus" (default "2"),
//              "engine": "approx"|"resilient" (default "approx"),
//              "work_limit", "threads" (uints, optional; threads
//                             at most kMaxJobThreads),
//              "incremental": bool (optional — cone-cached ECO mode;
//                             the response carries an "eco" block and
//                             per-request serve.cone_cache counters;
//                             not with engine "resilient"),
//              "guard": {"deadline_ms", "max_memory_mb",
//                        "inject_abort_after", "inject_abort_reason"}
//   atpg:      circuit/threads/guard as classify, plus "max_paths";
//              the must-test set is Heuristic 2's
//
// handle() never throws: malformed input becomes a "serve_error" frame
// with a stable machine code, and a guard abort becomes the same
// partial-but-valid report the CLI writes for an aborted run.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "atpg/testset.h"
#include "cache/cone_cache.h"
#include "cache/eco_classify.h"
#include "core/heuristics.h"
#include "core/resilient.h"
#include "io/json_writer.h"
#include "serve/circuit_cache.h"
#include "util/exec_guard.h"
#include "util/metrics.h"

namespace rd::serve {

struct SessionConfig {
  /// Shared compiled-circuit cache.  Null runs every request cold
  /// (parse + sort + compile, no reuse) — the one-shot parity mode the
  /// bit-identity tests compare the daemon against.
  CircuitCache* cache = nullptr;

  /// Shared cone cache for incremental classify jobs.  Null gives each
  /// such job a private, empty store (correct but reuse-free).  Not
  /// owned.
  ConeCacheStore* cone_cache = nullptr;

  /// Server-lifetime cancellation, chained into every request guard so
  /// daemon shutdown aborts in-flight jobs cooperatively.
  CancellationToken* cancel = nullptr;

  /// Extra payload merged into "stats" responses (the server injects
  /// its connection/queue counters here).
  std::function<JsonValue()> extra_stats;
};

/// A job's resource limits and deterministic fault injection: a
/// request's "guard" object, or the CLI's --deadline-ms,
/// --max-memory-mb and --inject-abort-* flags.
struct GuardSpec {
  double deadline_ms = 0.0;
  std::uint64_t max_memory_mb = 0;
  std::uint64_t inject_abort_after = 0;
  std::string inject_abort_reason = "work_budget";

  /// Guard options for these limits, chained onto `cancel`.
  ExecGuardOptions options(CancellationToken* cancel) const;

  /// Trips `guard` at its inject_abort_after-th check, if set.  Throws
  /// std::invalid_argument for an unknown inject_abort_reason.
  void arm(ExecGuard& guard) const;
};

/// One classify or atpg job: the typed form of a request's fields and
/// of the CLI's flags.
struct Job {
  /// The circuit.  `circuit_name` labels a parsed netlist,
  /// `netlist_text` is the content identity the compiled-circuit cache
  /// keys on, and `load`, when set, builds the Circuit instead of
  /// parsing netlist_text.
  std::string circuit_name;
  std::string netlist_text;
  std::function<Circuit()> load;

  std::string heuristic = "2";    // input-sort spec, see is_sort_spec
  std::string engine = "approx";  // "approx" | "resilient"
  bool incremental = false;       // cone-cached ECO mode
  std::uint64_t work_limit = ClassifyOptions{}.work_limit;
  std::size_t threads = 1;         // 0 = all hardware threads
  std::uint64_t max_paths = 20000;  // atpg: cap on must-test paths
};

/// Most worker threads one job may ask for.  `threads` comes from
/// outside the program (a request field or a CLI flag) and becomes the
/// thread count of a pool, so it is bounded before anything starts.
inline constexpr std::size_t kMaxJobThreads = 256;

/// Throws std::invalid_argument for an unknown heuristic or engine,
/// incremental mode with the resilient engine, or threads above
/// kMaxJobThreads.
void validate_job(const Job& job);

/// What a job produced.
struct JobResult {
  /// The "classify_run" or "atpg_run" report, metrics included, without
  /// the "serve" payload.  Null when over_path_cap.
  JsonValue report;

  /// The classified circuit (null when the sort's pre-run aborted)
  /// and its name.
  std::shared_ptr<const Circuit> circuit;
  std::string circuit_name;

  RdIdentification rd;

  /// The ladder's record (engine "resilient" only); its classify equals
  /// rd.classify.
  std::optional<ResilientClassifyResult> resilient;

  /// Incremental jobs: the sweep's counters and the cone store's.
  std::optional<EcoStats> eco;
  ConeCacheStore::Stats cone_cache;

  /// atpg only: the generated tests (completed = false with the
  /// classify abort_reason when classification aborted), and whether
  /// the must-test set exceeded max_paths, in which case no tests were
  /// generated and no report was made.
  GeneratedTestSet test_set;
  bool over_path_cap = false;

  /// The compiled-circuit cache's verdict and counters (absent for
  /// incremental jobs with no shared cache), and the job's content key.
  bool cache_hit = false;
  std::optional<CacheStats> cache_stats;
  std::uint64_t content_key = 0;
};

/// Thrown by Session::classify/atpg when the job's circuit cannot be
/// loaded (unreadable file, malformed netlist); what() is the reader's
/// message.
struct CircuitLoadError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct RequestOutcome {
  /// The response frame payload; always passes validate_run_report.
  JsonValue response;

  /// True for a granted {"op": "shutdown"} — the server stops
  /// accepting work after sending the response.
  bool shutdown = false;
};

class Session {
 public:
  explicit Session(SessionConfig config);

  /// Executes one request (JSON text of one frame).  Never throws.
  RequestOutcome handle(const std::string& request_text);

  /// Runs one classify job under `guard`.  Throws what validate_job
  /// throws and CircuitLoadError for an unloadable circuit; aborts are
  /// reported, never thrown.
  JobResult classify(const Job& job, ExecGuard& guard);

  /// Classifies `job` as classify does, keeping up to job.max_paths
  /// must-test paths, then generates their robust / non-robust tests.
  /// Throws as classify.
  JobResult atpg(const Job& job, ExecGuard& guard);

 private:
  JobResult run_classification(const Job& job, ExecGuard& guard,
                               std::uint64_t collect_paths_limit,
                               MetricsRegistry& metrics);

  SessionConfig config_;
};

}  // namespace rd::serve
