#include "io/run_report.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace rd {

namespace {

/// rd_percent is meaningful only on a completed run over a nonempty
/// path set with a finite value; everything else serializes as null.
JsonValue rd_percent_json(const ClassifyResult& result) {
  if (!result.completed) return JsonValue::null();
  if (result.total_logical.is_zero()) return JsonValue::null();
  if (!std::isfinite(result.rd_percent)) return JsonValue::null();
  return JsonValue::number(result.rd_percent);
}

JsonValue implication_json(const ImplicationStats& stats) {
  JsonValue out = JsonValue::object();
  out.set("assignments", JsonValue::number(stats.assignments));
  out.set("propagations", JsonValue::number(stats.propagations));
  out.set("conflicts", JsonValue::number(stats.conflicts));
  out.set("backward", JsonValue::number(stats.backward));
  return out;
}

}  // namespace

JsonValue run_report_envelope(const std::string& kind) {
  JsonValue report = JsonValue::object();
  report.set("schema_version", JsonValue::number(kRunReportSchemaVersion));
  report.set("kind", JsonValue::string(kind));
  return report;
}

JsonValue abort_reason_json(AbortReason reason) {
  if (reason == AbortReason::kNone) return JsonValue::null();
  return JsonValue::string(abort_reason_name(reason));
}

JsonValue resilient_json(const ResilientClassifyResult& result) {
  JsonValue out = JsonValue::object();
  out.set("engine", JsonValue::string(engine_rung_name(result.engine)));
  if (!result.attempted.empty() && result.attempted.front() != result.engine) {
    out.set("degraded_from",
            JsonValue::string(engine_rung_name(result.attempted.front())));
  } else {
    out.set("degraded_from", JsonValue::null());
  }
  out.set("abort_reason", abort_reason_json(result.degraded_reason));
  return out;
}

JsonValue classify_result_json(const ClassifyResult& result) {
  JsonValue out = JsonValue::object();
  out.set("completed", JsonValue::boolean(result.completed));
  // Null iff completed: every engine names the cause of an abort.
  out.set("abort_reason", abort_reason_json(result.abort_reason));
  out.set("kept_paths", JsonValue::number(result.kept_paths));
  // Exact decimal token: BigUint totals routinely exceed 2^64 (e.g.
  // c6288) and must not be rounded through a double.
  out.set("total_logical",
          JsonValue::number_token(result.total_logical.to_decimal()));
  if (result.completed) {
    out.set("rd_paths", JsonValue::number_token(result.rd_paths.to_decimal()));
  } else {
    out.set("rd_paths", JsonValue::null());
  }
  out.set("rd_percent", rd_percent_json(result));
  out.set("work", JsonValue::number(result.work));
  out.set("wall_seconds", JsonValue::number(result.wall_seconds));
  out.set("implication", implication_json(result.implication));
  // Optional, additive (no schema bump): present only when the run was
  // eligible for the subtree-replay cache.  Parallel counts depend on
  // the schedule, like "workers".
  if (result.memo.has_value()) {
    JsonValue memo = JsonValue::object();
    memo.set("lookups", JsonValue::number(result.memo->lookups));
    memo.set("hits", JsonValue::number(result.memo->hits));
    memo.set("replayed_work", JsonValue::number(result.memo->replayed_work));
    out.set("memo", std::move(memo));
  }
  if (!result.worker_stats.empty()) {
    JsonValue workers = JsonValue::array();
    for (const ClassifyWorkerStats& stats : result.worker_stats) {
      JsonValue worker = JsonValue::object();
      worker.set("seeds", JsonValue::number(stats.seeds));
      worker.set("steals", JsonValue::number(stats.steals));
      worker.set("work", JsonValue::number(stats.work));
      worker.set("busy_seconds", JsonValue::number(stats.busy_seconds));
      workers.append(std::move(worker));
    }
    out.set("workers", std::move(workers));
  }
  return out;
}

JsonValue classify_run_report(const std::string& circuit_name,
                              const std::string& method,
                              const RdIdentification& rd,
                              const MetricsRegistry* metrics) {
  JsonValue report = run_report_envelope("classify_run");
  report.set("circuit", JsonValue::string(circuit_name));
  report.set("method", JsonValue::string(method));
  report.set("sort_seconds", JsonValue::number(rd.sort_seconds));
  report.set("prerun_work", JsonValue::number(rd.prerun_work));
  report.set("classify", classify_result_json(rd.classify));
  if (metrics != nullptr) report.set("metrics", metrics_json(*metrics));
  return report;
}

JsonValue atpg_run_report(const std::string& circuit_name,
                          const RdIdentification& rd,
                          const GeneratedTestSet& set,
                          const MetricsRegistry* metrics) {
  JsonValue report = run_report_envelope("atpg_run");
  report.set("circuit", JsonValue::string(circuit_name));
  report.set("classify", classify_result_json(rd.classify));

  JsonValue atpg = JsonValue::object();
  atpg.set("tests", JsonValue::number(
                        static_cast<std::uint64_t>(set.tests.size())));
  atpg.set("robust", JsonValue::number(
                         static_cast<std::uint64_t>(set.robust_count)));
  atpg.set("nonrobust", JsonValue::number(static_cast<std::uint64_t>(
                            set.nonrobust_count)));
  atpg.set("undetected", JsonValue::number(static_cast<std::uint64_t>(
                             set.undetected_count)));
  atpg.set("robust_coverage_percent",
           JsonValue::number(set.robust_coverage_percent));
  atpg.set("robust_nodes", JsonValue::number(set.robust_nodes));
  atpg.set("nonrobust_nodes", JsonValue::number(set.nonrobust_nodes));
  atpg.set("robust_budget_exceeded",
           JsonValue::number(
               static_cast<std::uint64_t>(set.robust_budget_exceeded)));
  atpg.set("nonrobust_budget_exceeded",
           JsonValue::number(
               static_cast<std::uint64_t>(set.nonrobust_budget_exceeded)));
  atpg.set("completed", JsonValue::boolean(set.completed));
  atpg.set("abort_reason", abort_reason_json(set.abort_reason));
  atpg.set("wall_seconds", JsonValue::number(set.wall_seconds));
  report.set("atpg", std::move(atpg));
  if (metrics != nullptr) report.set("metrics", metrics_json(*metrics));
  return report;
}

JsonValue eco_json(const EcoStats& stats,
                   const ConeCacheStore::Stats& store) {
  JsonValue out = JsonValue::object();
  out.set("cones", JsonValue::number(stats.cones));
  out.set("hits", JsonValue::number(stats.hits));
  out.set("misses", JsonValue::number(stats.misses));
  out.set("stored", JsonValue::number(stats.stored));
  out.set("stale_loaded", JsonValue::number(store.stale_loaded));
  out.set("records", JsonValue::number(store.records));
  out.set("evictions", JsonValue::number(store.evictions));
  const ConeCacheRecovery& r = store.recovery;
  JsonValue recovery = JsonValue::object();
  recovery.set("torn_tmp", JsonValue::number(r.torn_tmp));
  recovery.set("bad_header", JsonValue::number(r.bad_header));
  recovery.set("version_skew", JsonValue::number(r.version_skew));
  recovery.set("truncated", JsonValue::number(r.truncated));
  recovery.set("crc_mismatch", JsonValue::number(r.crc_mismatch));
  recovery.set("malformed_record", JsonValue::number(r.malformed_record));
  recovery.set("duplicate_key", JsonValue::number(r.duplicate_key));
  recovery.set("quarantined_files", JsonValue::number(r.quarantined_files));
  out.set("recovery", std::move(recovery));
  return out;
}

JsonValue bench_report(const std::string& bench_name) {
  JsonValue report = run_report_envelope("bench");
  report.set("bench", JsonValue::string(bench_name));
  report.set("rows", JsonValue::array());
  return report;
}

JsonValue serve_ack_report(std::uint64_t id, bool has_id) {
  JsonValue report = run_report_envelope("serve_ack");
  report.set("id", has_id ? JsonValue::number(id) : JsonValue::null());
  report.set("ok", JsonValue::boolean(true));
  return report;
}

JsonValue serve_error_report(std::uint64_t id, bool has_id,
                             const std::string& code,
                             const std::string& message) {
  JsonValue report = run_report_envelope("serve_error");
  report.set("id", has_id ? JsonValue::number(id) : JsonValue::null());
  report.set("ok", JsonValue::boolean(false));
  JsonValue error = JsonValue::object();
  error.set("code", JsonValue::string(code));
  error.set("message", JsonValue::string(message));
  report.set("error", std::move(error));
  return report;
}

JsonValue metrics_json(const MetricsRegistry& registry) {
  const MetricsRegistry::Snapshot snapshot = registry.snapshot();
  JsonValue out = JsonValue::object();

  JsonValue counters = JsonValue::object();
  for (const auto& [name, value] : snapshot.counters)
    counters.set(name, JsonValue::number(value));
  out.set("counters", std::move(counters));

  JsonValue timers = JsonValue::object();
  for (const auto& [name, value] : snapshot.timers) {
    JsonValue timer = JsonValue::object();
    timer.set("seconds", JsonValue::number(value.seconds));
    timer.set("count", JsonValue::number(value.count));
    timers.set(name, std::move(timer));
  }
  out.set("timers", std::move(timers));

  JsonValue gauges = JsonValue::object();
  for (const auto& [name, value] : snapshot.gauges)
    gauges.set(name, JsonValue::number(value));
  out.set("gauges", std::move(gauges));
  return out;
}

void record_classify_metrics(const ClassifyResult& result,
                             MetricsRegistry& registry) {
  registry.add_counter("classify.runs");
  if (!result.completed) registry.add_counter("classify.aborted");
  registry.add_counter("classify.kept_paths", result.kept_paths);
  registry.add_counter("classify.work", result.work);
  registry.add_counter("implication.assignments",
                       result.implication.assignments);
  registry.add_counter("implication.propagations",
                       result.implication.propagations);
  registry.add_counter("implication.conflicts", result.implication.conflicts);
  registry.add_counter("implication.backward", result.implication.backward);
  if (result.memo.has_value()) {
    registry.add_counter("memo.lookups", result.memo->lookups);
    registry.add_counter("memo.hits", result.memo->hits);
    registry.add_counter("memo.replayed_work", result.memo->replayed_work);
  }
  registry.add_timer("classify.wall", result.wall_seconds);
  for (const ClassifyWorkerStats& stats : result.worker_stats) {
    registry.add_counter("classify.worker_seeds", stats.seeds);
    registry.add_counter("classify.worker_steals", stats.steals);
    registry.add_timer("classify.worker_busy", stats.busy_seconds);
  }
}

namespace {

void require_key(const JsonValue& object, const char* key,
                 std::vector<std::string>& problems) {
  if (object.find(key) == nullptr)
    problems.push_back(std::string("missing key \"") + key + "\"");
}

bool is_abort_reason_name(const std::string& name) {
  for (const AbortReason reason :
       {AbortReason::kDeadline, AbortReason::kWorkBudget, AbortReason::kMemory,
        AbortReason::kCancelled})
    if (name == abort_reason_name(reason)) return true;
  return false;
}

/// Shared rule for classify payloads and atpg blocks: "abort_reason"
/// must exist, be null exactly on completed runs, and otherwise name a
/// known AbortReason.
void validate_abort_reason(const JsonValue& object, const char* context,
                           std::vector<std::string>& problems) {
  const JsonValue* reason = object.find("abort_reason");
  if (reason == nullptr) {
    problems.push_back(std::string("missing key \"abort_reason\" in ") +
                       context);
    return;
  }
  const JsonValue* completed = object.find("completed");
  const bool is_completed =
      completed != nullptr && completed->is_bool() && completed->as_bool();
  if (reason->is_null()) {
    if (!is_completed)
      problems.push_back(std::string("aborted ") + context +
                         " has null \"abort_reason\"");
    return;
  }
  if (!reason->is_string()) {
    problems.push_back(std::string("\"abort_reason\" in ") + context +
                       " is neither null nor a string");
    return;
  }
  if (is_completed)
    problems.push_back(std::string("completed ") + context +
                       " has non-null \"abort_reason\"");
  if (!is_abort_reason_name(reason->as_string()))
    problems.push_back("unknown abort_reason \"" + reason->as_string() +
                       "\" in " + context);
}

/// A required counter key of an optional report block (classify.memo,
/// eco, eco.recovery, serve.cone_cache): present and a number.
void require_counter(const JsonValue& object, const char* owner,
                     const char* key, std::vector<std::string>& problems) {
  const JsonValue* value = object.find(key);
  if (value == nullptr) {
    problems.push_back(std::string("missing key \"") + key + "\" in " +
                       owner);
    return;
  }
  if (!value->is_number())
    problems.push_back(std::string("\"") + owner + "." + key +
                       "\" is not a number");
}

void validate_classify_payload(const JsonValue& report,
                               std::vector<std::string>& problems) {
  const JsonValue* classify = report.find("classify");
  if (classify == nullptr) {
    problems.push_back("missing key \"classify\"");
    return;
  }
  if (!classify->is_object()) {
    problems.push_back("\"classify\" is not an object");
    return;
  }
  for (const char* key :
       {"completed", "abort_reason", "kept_paths", "total_logical",
        "rd_paths", "rd_percent", "work", "wall_seconds", "implication"})
    require_key(*classify, key, problems);
  validate_abort_reason(*classify, "classify payload", problems);
  const JsonValue* completed = classify->find("completed");
  if (completed != nullptr && completed->is_bool() && completed->as_bool()) {
    const JsonValue* rd_paths = classify->find("rd_paths");
    if (rd_paths != nullptr && rd_paths->is_null())
      problems.push_back("completed run has null \"rd_paths\"");
  }
  // Optional "memo" object (subtree-replay cache counters).
  const JsonValue* memo = classify->find("memo");
  if (memo != nullptr) {
    if (!memo->is_object()) {
      problems.push_back("\"classify.memo\" is not an object");
    } else {
      for (const char* key : {"lookups", "hits", "replayed_work"})
        require_counter(*memo, "classify.memo", key, problems);
    }
  }
}

void validate_resilient_payload(const JsonValue& report,
                                std::vector<std::string>& problems) {
  const JsonValue* resilient = report.find("resilient");
  if (resilient == nullptr) return;  // optional
  if (!resilient->is_object()) {
    problems.push_back("\"resilient\" is not an object");
    return;
  }
  for (const char* key : {"engine", "degraded_from", "abort_reason"})
    require_key(*resilient, key, problems);
  const JsonValue* engine = resilient->find("engine");
  if (engine != nullptr && !engine->is_string())
    problems.push_back("\"resilient.engine\" is not a string");
  const JsonValue* degraded = resilient->find("degraded_from");
  if (degraded != nullptr && !degraded->is_null() && !degraded->is_string())
    problems.push_back(
        "\"resilient.degraded_from\" is neither null nor a string");
  const JsonValue* reason = resilient->find("abort_reason");
  if (reason != nullptr && !reason->is_null() &&
      !(reason->is_string() && is_abort_reason_name(reason->as_string())))
    problems.push_back(
        "\"resilient.abort_reason\" is neither null nor a known reason");
}

/// The optional "eco" object of incremental classify_run reports:
/// cache counters plus the typed recovery ladder.
void validate_eco_payload(const JsonValue& report,
                          std::vector<std::string>& problems) {
  const JsonValue* eco = report.find("eco");
  if (eco == nullptr) return;  // optional
  if (!eco->is_object()) {
    problems.push_back("\"eco\" is not an object");
    return;
  }
  for (const char* key : {"cones", "hits", "misses", "stored",
                          "stale_loaded", "records", "evictions"})
    require_counter(*eco, "eco", key, problems);
  const JsonValue* recovery = eco->find("recovery");
  if (recovery == nullptr) {
    problems.push_back("missing key \"recovery\" in eco");
    return;
  }
  if (!recovery->is_object()) {
    problems.push_back("\"eco.recovery\" is not an object");
    return;
  }
  for (const char* key :
       {"torn_tmp", "bad_header", "version_skew", "truncated",
        "crc_mismatch", "malformed_record", "duplicate_key",
        "quarantined_files"})
    require_counter(*recovery, "eco.recovery", key, problems);
}

/// The optional "serve" object a daemon attaches to job reports:
/// request correlation id plus the circuit-cache verdict.  Optional
/// extras: "cache_evictions"/"cache_failures" (CircuitCache pressure
/// counters) and a "cone_cache" object ({hit, miss, recovered} for the
/// request's incremental slice).
void validate_serve_payload(const JsonValue& report,
                            std::vector<std::string>& problems) {
  const JsonValue* serve = report.find("serve");
  if (serve == nullptr) return;  // optional
  if (!serve->is_object()) {
    problems.push_back("\"serve\" is not an object");
    return;
  }
  for (const char* key : {"id", "cache_hit"})
    require_key(*serve, key, problems);
  const JsonValue* id = serve->find("id");
  if (id != nullptr && !id->is_null() && !id->is_number())
    problems.push_back("\"serve.id\" is neither null nor a number");
  const JsonValue* cache_hit = serve->find("cache_hit");
  if (cache_hit != nullptr && !cache_hit->is_bool())
    problems.push_back("\"serve.cache_hit\" is not a bool");
  for (const char* key : {"cache_evictions", "cache_failures"}) {
    const JsonValue* value = serve->find(key);
    if (value != nullptr && !value->is_number())
      problems.push_back(std::string("\"serve.") + key +
                         "\" is not a number");
  }
  const JsonValue* cone_cache = serve->find("cone_cache");
  if (cone_cache != nullptr) {
    if (!cone_cache->is_object()) {
      problems.push_back("\"serve.cone_cache\" is not an object");
    } else {
      for (const char* key : {"hits", "misses", "recovered"})
        require_counter(*cone_cache, "serve.cone_cache", key, problems);
    }
  }
}

/// Frame-level serve kinds: both carry "id" (number or null) and "ok";
/// serve_error additionally carries an "error" {code, message} object.
void validate_serve_frame(const JsonValue& report, bool is_error,
                          std::vector<std::string>& problems) {
  for (const char* key : {"id", "ok"}) require_key(report, key, problems);
  const JsonValue* id = report.find("id");
  if (id != nullptr && !id->is_null() && !id->is_number())
    problems.push_back("\"id\" is neither null nor a number");
  const JsonValue* ok = report.find("ok");
  if (ok != nullptr && !ok->is_bool()) problems.push_back("\"ok\" is not a bool");
  if (!is_error) return;
  const JsonValue* error = report.find("error");
  if (error == nullptr) {
    problems.push_back("missing key \"error\"");
    return;
  }
  if (!error->is_object()) {
    problems.push_back("\"error\" is not an object");
    return;
  }
  for (const char* key : {"code", "message"})
    require_key(*error, key, problems);
  const JsonValue* message = error->find("message");
  if (message != nullptr && !message->is_string())
    problems.push_back("\"error.message\" is not a string");
  const JsonValue* code = error->find("code");
  if (code != nullptr && !code->is_string())
    problems.push_back("\"error.code\" is not a string");
}

}  // namespace

std::vector<std::string> validate_run_report(const JsonValue& report) {
  std::vector<std::string> problems;
  if (!report.is_object()) {
    problems.push_back("report is not a JSON object");
    return problems;
  }

  const JsonValue* version = report.find("schema_version");
  if (version == nullptr) {
    problems.push_back("missing key \"schema_version\"");
  } else if (!version->is_number()) {
    problems.push_back("\"schema_version\" is not a number");
  } else {
    bool supported = false;
    try {
      supported = version->as_uint64() == kRunReportSchemaVersion;
    } catch (const std::runtime_error&) {
      // Non-integral token; unsupported.
    }
    if (!supported) problems.push_back("unsupported schema_version");
  }

  const JsonValue* kind = report.find("kind");
  if (kind == nullptr) {
    problems.push_back("missing key \"kind\"");
    return problems;
  }
  if (!kind->is_string()) {
    problems.push_back("\"kind\" is not a string");
    return problems;
  }

  const std::string& kind_name = kind->as_string();
  if (kind_name == "classify_run") {
    for (const char* key : {"circuit", "method", "sort_seconds",
                            "prerun_work"})
      require_key(report, key, problems);
    validate_classify_payload(report, problems);
    validate_resilient_payload(report, problems);
    validate_eco_payload(report, problems);
    validate_serve_payload(report, problems);
  } else if (kind_name == "atpg_run") {
    require_key(report, "circuit", problems);
    validate_classify_payload(report, problems);
    validate_serve_payload(report, problems);
    const JsonValue* atpg = report.find("atpg");
    if (atpg == nullptr) {
      problems.push_back("missing key \"atpg\"");
    } else if (!atpg->is_object()) {
      problems.push_back("\"atpg\" is not an object");
    } else {
      for (const char* key :
           {"tests", "robust", "nonrobust", "undetected",
            "robust_coverage_percent", "completed", "abort_reason",
            "wall_seconds"})
        require_key(*atpg, key, problems);
      validate_abort_reason(*atpg, "atpg block", problems);
    }
  } else if (kind_name == "bench") {
    require_key(report, "bench", problems);
    const JsonValue* rows = report.find("rows");
    if (rows == nullptr) {
      problems.push_back("missing key \"rows\"");
    } else if (!rows->is_array()) {
      problems.push_back("\"rows\" is not an array");
    } else {
      for (std::size_t i = 0; i < rows->size(); ++i)
        if (!rows->at(i).is_object())
          problems.push_back("rows[" + std::to_string(i) +
                             "] is not an object");
    }
  } else if (kind_name == "serve_ack") {
    validate_serve_frame(report, /*is_error=*/false, problems);
  } else if (kind_name == "serve_error") {
    validate_serve_frame(report, /*is_error=*/true, problems);
  } else {
    problems.push_back("unknown kind \"" + kind_name + "\"");
  }
  return problems;
}

void write_json_file(const std::string& path, const JsonValue& value) {
  const std::string text = value.to_string();  // already newline-terminated
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr)
    throw std::runtime_error("cannot open " + path + " for writing");
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), file);
  const bool close_ok = std::fclose(file) == 0;
  if (written != text.size() || !close_ok)
    throw std::runtime_error("short write to " + path);
}

}  // namespace rd
