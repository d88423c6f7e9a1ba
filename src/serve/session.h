// Request execution shared by `rdfast serve` and one-shot callers
// (DESIGN.md §12).
//
// A Session turns one request frame (JSON text) into one response
// frame (a schema-valid run report — validate_run_report accepts every
// frame a Session produces).  It owns the full pipeline the CLI's
// classify/atpg commands used to inline: field extraction with strict
// typing, circuit resolution (builtin name or inline .bench text),
// per-request ExecGuard construction (deadline / memory / injection
// QoS chained onto the server's cancellation token), the cache lookup,
// the classify/ATPG run, and report assembly.  The daemon and the
// `rdfast request` one-shot path call the same handle(), so their
// deterministic output fields are bit-identical by construction — the
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
//              "work_limit", "threads" (uints, optional),
//              "implications": "off"|"learned" (default "off"),
//              "incremental": bool (optional — cone-cached ECO mode;
//                             the response carries an "eco" block and
//                             per-request serve.cone_cache counters),
//              "guard": {"deadline_ms", "max_memory_mb",
//                        "inject_abort_after", "inject_abort_reason"}
//   atpg:      circuit/threads/guard as classify, plus "max_paths"
//
// handle() never throws: malformed input becomes a "serve_error" frame
// with a stable machine code, and a guard abort becomes the same
// partial-but-valid report the CLI writes for an aborted run.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "cache/cone_cache.h"
#include "io/json_writer.h"
#include "serve/circuit_cache.h"
#include "util/exec_guard.h"

namespace rd::serve {

struct SessionConfig {
  /// Shared compiled-circuit cache.  Null runs every request cold
  /// (parse + sort + compile, no reuse) — the one-shot parity mode the
  /// bit-identity tests compare the daemon against.
  CircuitCache* cache = nullptr;

  /// Shared cone cache for {"incremental": true} classify requests.
  /// Null gives each such request a private, empty store (correct but
  /// reuse-free).  Not owned.
  ConeCacheStore* cone_cache = nullptr;

  /// Server-lifetime cancellation, chained into every request guard so
  /// daemon shutdown aborts in-flight jobs cooperatively.
  CancellationToken* cancel = nullptr;

  /// Extra payload merged into "stats" responses (the server injects
  /// its connection/queue counters here).
  std::function<JsonValue()> extra_stats;
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

 private:
  JsonValue run_classify(const JsonValue& request, std::uint64_t id,
                         bool has_id);
  JsonValue run_atpg(const JsonValue& request, std::uint64_t id, bool has_id);

  SessionConfig config_;
};

}  // namespace rd::serve
