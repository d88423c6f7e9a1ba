#include "serve/session.h"

#include <exception>
#include <stdexcept>
#include <utility>
#include <vector>

#include "atpg/testset.h"
#include "cache/eco_classify.h"
#include "core/classify.h"
#include "core/heuristics.h"
#include "gen/examples.h"
#include "gen/iscas_like.h"
#include "io/bench_io.h"
#include "io/run_report.h"
#include "util/metrics.h"

namespace rd::serve {

namespace {

/// Client-attributable request defects; handle() maps this to a
/// "bad_request" serve_error (anything else that escapes is
/// "internal").
struct BadRequest : std::runtime_error {
  using std::runtime_error::runtime_error;
};

std::uint64_t get_uint(const JsonValue& request, std::string_view key,
                       std::uint64_t fallback) {
  const JsonValue* value = request.find(key);
  if (value == nullptr) return fallback;
  if (!value->is_number())
    throw BadRequest("field '" + std::string(key) + "' must be a number");
  try {
    return value->as_uint64();
  } catch (const std::runtime_error&) {
    throw BadRequest("field '" + std::string(key) +
                     "' must be an unsigned 64-bit integer");
  }
}

double get_nonneg_double(const JsonValue& request, std::string_view key,
                         double fallback) {
  const JsonValue* value = request.find(key);
  if (value == nullptr) return fallback;
  if (!value->is_number())
    throw BadRequest("field '" + std::string(key) + "' must be a number");
  const double parsed = value->as_double();
  if (!(parsed >= 0.0))
    throw BadRequest("field '" + std::string(key) + "' must be >= 0");
  return parsed;
}

std::string get_string(const JsonValue& request, std::string_view key,
                       std::string fallback) {
  const JsonValue* value = request.find(key);
  if (value == nullptr) return fallback;
  if (!value->is_string())
    throw BadRequest("field '" + std::string(key) + "' must be a string");
  return value->as_string();
}

bool get_bool(const JsonValue& request, std::string_view key, bool fallback) {
  const JsonValue* value = request.find(key);
  if (value == nullptr) return fallback;
  if (!value->is_bool())
    throw BadRequest("field '" + std::string(key) + "' must be a bool");
  return value->as_bool();
}

/// Fills the job's circuit fields from the request's "circuit" object.
/// Builtins are rendered to text for the cache key (content identity)
/// but rebuilt through the generator on a cache miss, so a
/// daemon-built builtin is the *same* Circuit object graph — gate
/// numbering included — that the one-shot CLI classifies.  The builtin
/// key text carries a marker prefix so it can never collide with an
/// inline netlist whose text happens to match the rendered form (the
/// two parse paths may number gates differently).
void resolve_circuit(const JsonValue& request, Job* job) {
  const JsonValue* circuit = request.find("circuit");
  if (circuit == nullptr || !circuit->is_object())
    throw BadRequest("field 'circuit' must be an object");
  const JsonValue* builtin = circuit->find("builtin");
  if (builtin != nullptr) {
    if (!builtin->is_string())
      throw BadRequest("field 'circuit.builtin' must be a string");
    const std::string spec = builtin->as_string();
    const auto generate = [spec] {
      if (spec == "example") return paper_example_circuit();
      if (spec == "c17") return c17();
      return make_benchmark(spec);
    };
    Circuit generated;
    try {
      generated = generate();
    } catch (const std::invalid_argument& error) {
      throw BadRequest("unknown builtin circuit '" + spec +
                       "': " + error.what());
    }
    job->circuit_name = generated.name();
    job->netlist_text = "builtin\n" + write_bench_string(generated);
    job->load = generate;
    return;
  }
  const JsonValue* bench = circuit->find("bench");
  if (bench == nullptr || !bench->is_string())
    throw BadRequest("field 'circuit' needs 'builtin' or a 'bench' string");
  job->netlist_text = bench->as_string();
  job->circuit_name = get_string(*circuit, "name", "request");
}

GuardSpec guard_spec(const JsonValue& request) {
  GuardSpec spec;
  const JsonValue* guard = request.find("guard");
  if (guard == nullptr) return spec;
  if (!guard->is_object()) throw BadRequest("field 'guard' must be an object");
  spec.deadline_ms = get_nonneg_double(*guard, "deadline_ms", 0.0);
  spec.max_memory_mb = get_uint(*guard, "max_memory_mb", 0);
  spec.inject_abort_after = get_uint(*guard, "inject_abort_after", 0);
  spec.inject_abort_reason =
      get_string(*guard, "inject_abort_reason", "work_budget");
  return spec;
}

Job classify_job(const JsonValue& request) {
  Job job;
  resolve_circuit(request, &job);
  job.heuristic = get_string(request, "heuristic", job.heuristic);
  job.engine = get_string(request, "engine", job.engine);
  job.incremental = get_bool(request, "incremental", false);
  job.work_limit = get_uint(request, "work_limit", job.work_limit);
  job.threads =
      static_cast<std::size_t>(get_uint(request, "threads", job.threads));
  // The lane engine is gone (DESIGN.md "Removed accelerators"): a
  // request that still names a lane width is refused, like the CLI's
  // unknown option, rather than silently run on the scalar engine.
  if (request.find("lanes") != nullptr)
    throw BadRequest("field 'lanes' was removed; classification is scalar");
  // Likewise the learned implication tier: the classifier uses the
  // paper's local implications only, and any tier request is refused.
  if (request.find("implications") != nullptr)
    throw BadRequest(
        "field 'implications' was removed; classification uses local "
        "implications only");
  return job;
}

Job atpg_job(const JsonValue& request) {
  Job job;
  resolve_circuit(request, &job);
  job.max_paths = get_uint(request, "max_paths", job.max_paths);
  job.threads =
      static_cast<std::size_t>(get_uint(request, "threads", job.threads));
  return job;
}

/// The {"serve": ...} payload attached to every job report.  Beyond
/// the per-request hit/miss verdict it snapshots the shared cache's
/// pressure counters (evictions, build failures), so a client can see
/// churn without a separate stats round-trip.
JsonValue serve_payload(std::uint64_t id, bool has_id,
                        const JobResult& result) {
  JsonValue payload = JsonValue::object();
  payload.set("id", has_id ? JsonValue::number(id) : JsonValue::null());
  payload.set("cache_hit", JsonValue::boolean(result.cache_hit));
  payload.set("circuit_key", JsonValue::number(result.content_key));
  if (result.cache_stats.has_value()) {
    payload.set("cache_evictions",
                JsonValue::number(result.cache_stats->evictions));
    payload.set("cache_failures",
                JsonValue::number(result.cache_stats->failures));
  }
  if (result.eco.has_value()) {
    JsonValue cone_cache = JsonValue::object();
    cone_cache.set("hits", JsonValue::number(result.eco->hits));
    cone_cache.set("misses", JsonValue::number(result.eco->misses));
    cone_cache.set("recovered",
                   JsonValue::number(result.cone_cache.recovery.total()));
    payload.set("cone_cache", std::move(cone_cache));
  }
  return payload;
}

/// The job's circuit, timed as `io.load`; a reader failure becomes a
/// CircuitLoadError.
Circuit load_circuit(const Job& job, MetricsRegistry& metrics) {
  ScopedTimer timer(metrics, "io.load");
  try {
    return job.load ? job.load()
                    : read_bench_string(job.netlist_text, job.circuit_name);
  } catch (const std::runtime_error& error) {
    throw CircuitLoadError(error.what());
  }
}

}  // namespace

void validate_job(const Job& job) {
  if (!is_sort_spec(job.heuristic))
    throw std::invalid_argument("unknown heuristic '" + job.heuristic +
                                "' (expected 1, 2, inverse or fus)");
  if (job.engine != "approx" && job.engine != "resilient")
    throw std::invalid_argument("unknown engine '" + job.engine +
                                "' (expected approx or resilient)");
  if (job.engine == "resilient" && job.incremental)
    throw std::invalid_argument(
        "incremental mode does not compose with the resilient engine");
  if (job.threads > kMaxJobThreads)
    throw std::invalid_argument(
        "threads " + std::to_string(job.threads) + " exceeds the limit of " +
        std::to_string(kMaxJobThreads) + " (0 = all hardware threads)");
}

ExecGuardOptions GuardSpec::options(CancellationToken* cancel) const {
  ExecGuardOptions options;
  options.deadline_seconds = deadline_ms / 1000.0;
  options.memory_limit_bytes = max_memory_mb * 1024 * 1024;
  options.cancel = cancel;
  return options;
}

void GuardSpec::arm(ExecGuard& guard) const {
  if (inject_abort_after == 0) return;
  for (const AbortReason reason :
       {AbortReason::kDeadline, AbortReason::kMemory, AbortReason::kCancelled,
        AbortReason::kWorkBudget}) {
    if (inject_abort_reason == abort_reason_name(reason)) {
      guard.inject_trip_at(inject_abort_after, reason);
      return;
    }
  }
  throw std::invalid_argument("unknown inject_abort_reason '" +
                              inject_abort_reason + "'");
}

Session::Session(SessionConfig config) : config_(std::move(config)) {}

RequestOutcome Session::handle(const std::string& request_text) {
  RequestOutcome outcome;
  JsonValue request;
  try {
    request = parse_json(request_text);
  } catch (const std::runtime_error& error) {
    outcome.response =
        serve_error_report(0, /*has_id=*/false, "parse_error", error.what());
    return outcome;
  }

  std::uint64_t id = 0;
  bool has_id = false;
  try {
    if (!request.is_object()) throw BadRequest("request must be a JSON object");
    const JsonValue* id_field = request.find("id");
    if (id_field != nullptr && !id_field->is_null()) {
      id = get_uint(request, "id", 0);
      has_id = true;
    }
    const std::string op = get_string(request, "op", "");
    if (op.empty()) throw BadRequest("field 'op' must name an operation");

    if (op == "ping") {
      outcome.response = serve_ack_report(id, has_id);
      outcome.response.set("op", JsonValue::string("ping"));
      return outcome;
    }
    if (op == "shutdown") {
      outcome.response = serve_ack_report(id, has_id);
      outcome.response.set("op", JsonValue::string("shutdown"));
      outcome.shutdown = true;
      return outcome;
    }
    if (op == "stats") {
      outcome.response = serve_ack_report(id, has_id);
      outcome.response.set("op", JsonValue::string("stats"));
      JsonValue stats = config_.extra_stats ? config_.extra_stats()
                                            : JsonValue::object();
      if (config_.cache != nullptr) {
        const CacheStats cache = config_.cache->stats();
        JsonValue cache_json = JsonValue::object();
        cache_json.set("hits", JsonValue::number(cache.hits));
        cache_json.set("misses", JsonValue::number(cache.misses));
        cache_json.set("waits", JsonValue::number(cache.waits));
        cache_json.set("evictions", JsonValue::number(cache.evictions));
        cache_json.set("failures", JsonValue::number(cache.failures));
        cache_json.set("entries", JsonValue::number(cache.entries));
        cache_json.set("capacity", JsonValue::number(static_cast<std::uint64_t>(
                                       config_.cache->capacity())));
        stats.set("cache", std::move(cache_json));
      }
      if (config_.cone_cache != nullptr) {
        const ConeCacheStore::Stats cone = config_.cone_cache->stats();
        JsonValue cone_json = JsonValue::object();
        cone_json.set("records", JsonValue::number(cone.records));
        cone_json.set("hits", JsonValue::number(cone.hits));
        cone_json.set("misses", JsonValue::number(cone.misses));
        cone_json.set("loaded", JsonValue::number(cone.loaded));
        cone_json.set("stale_loaded", JsonValue::number(cone.stale_loaded));
        cone_json.set("evictions", JsonValue::number(cone.evictions));
        cone_json.set("recovered", JsonValue::number(cone.recovery.total()));
        stats.set("cone_cache", std::move(cone_json));
      }
      outcome.response.set("stats", std::move(stats));
      return outcome;
    }
    if (op == "validate") {
      const JsonValue* report = request.find("report");
      if (report == nullptr)
        throw BadRequest("field 'report' must hold the report to validate");
      const std::vector<std::string> problems = validate_run_report(*report);
      outcome.response = serve_ack_report(id, has_id);
      outcome.response.set("op", JsonValue::string("validate"));
      outcome.response.set("valid", JsonValue::boolean(problems.empty()));
      JsonValue problems_json = JsonValue::array();
      for (const std::string& problem : problems)
        problems_json.append(JsonValue::string(problem));
      outcome.response.set("problems", std::move(problems_json));
      return outcome;
    }
    if (op == "classify" || op == "atpg") {
      const bool classifying = op == "classify";
      const Job job = classifying ? classify_job(request) : atpg_job(request);
      const GuardSpec spec = guard_spec(request);
      ExecGuard guard(spec.options(config_.cancel));
      JobResult result;
      try {
        spec.arm(guard);
        result = classifying ? classify(job, guard) : atpg(job, guard);
      } catch (const CircuitLoadError& error) {
        throw BadRequest(std::string("cannot load circuit: ") + error.what());
      } catch (const std::invalid_argument& error) {
        throw BadRequest(error.what());
      }
      if (result.over_path_cap)
        throw BadRequest("too many must-test paths for ATPG (cap " +
                         std::to_string(job.max_paths) + "); raise max_paths");
      outcome.response = std::move(result.report);
      outcome.response.set("serve", serve_payload(id, has_id, result));
      return outcome;
    }
    throw BadRequest("unknown op '" + op + "'");
  } catch (const BadRequest& error) {
    outcome.response = serve_error_report(id, has_id, "bad_request",
                                          error.what());
    return outcome;
  } catch (const std::exception& error) {
    outcome.response =
        serve_error_report(id, has_id, "internal", error.what());
    return outcome;
  }
}

JobResult Session::run_classification(const Job& job, ExecGuard& guard,
                                       std::uint64_t collect_paths_limit,
                                       MetricsRegistry& metrics) {
  validate_job(job);
  const bool resilient = job.engine == "resilient";

  ClassifyOptions base;
  base.work_limit = job.work_limit;
  base.num_threads = job.threads;
  base.collect_paths_limit = collect_paths_limit;
  base.guard = &guard;

  JobResult out;
  out.circuit_name = job.circuit_name;
  out.content_key = CircuitCache::content_hash(job.netlist_text, job.heuristic);

  if (job.incremental) {
    // Cone-cached ECO mode: the compiled-circuit cache is bypassed —
    // reuse lives at cone granularity in the shared ConeCacheStore,
    // which survives across requests (and daemon restarts when the
    // server persists it).
    auto circuit = std::make_shared<const Circuit>(load_circuit(job, metrics));
    ConeCacheStore private_store;
    ConeCacheStore& store =
        config_.cone_cache != nullptr ? *config_.cone_cache : private_store;
    EcoOptions options;
    options.sort_spec = job.heuristic;
    options.base = base;
    EcoResult eco = classify_eco(*circuit, store, options);
    out.circuit = circuit;
    out.circuit_name = circuit->name();
    out.rd.classify = std::move(eco.classify);
    out.rd.sort_seconds = eco.stats.sort_seconds;
    out.rd.prerun_work = eco.stats.prerun_work;
    out.eco = eco.stats;
    out.cone_cache = store.stats();
    if (config_.cache != nullptr) out.cache_stats = config_.cache->stats();
    return out;
  }

  // One-shot mode (no shared cache) still funnels through a private
  // single-entry cache: identical build path, zero reuse.
  CircuitCache one_shot(1);
  CircuitCache& cache = config_.cache != nullptr ? *config_.cache : one_shot;
  CircuitCache::EntryPtr entry;
  try {
    entry = cache.get(job.netlist_text, job.circuit_name, job.heuristic, base,
                      &out.cache_hit, [&] {
                        Circuit circuit = load_circuit(job, metrics);
                        out.circuit_name = circuit.name();
                        return circuit;
                      });
  } catch (const SortAbortedError& aborted) {
    // The sort's pre-run aborted under this job's own budget: report
    // it like any aborted run, with the pre-run's accounting.
    out.rd.classify = *aborted.build().aborted;
    out.rd.sort_seconds = aborted.build().seconds;
    out.rd.prerun_work = aborted.build().prerun_work;
    out.cache_stats = cache.stats();
    // A ladder that never ran still answers on its approximate rung,
    // for the pre-run's cause.
    if (resilient)
      out.resilient = ResilientClassifyResult{
          out.rd.classify, EngineRung::kApproximate,
          out.rd.classify.abort_reason};
    return out;
  }

  ClassifyOptions options = base;
  options.criterion = entry->sort ? Criterion::kInputSort
                                  : Criterion::kFunctionalSensitizable;
  options.sort = entry->sort ? &*entry->sort : nullptr;
  options.compiled = entry->compiled.get();
  out.circuit = std::shared_ptr<const Circuit>(entry, &entry->circuit);
  out.circuit_name = entry->circuit.name();
  out.rd.sort_seconds = entry->sort_seconds;
  out.rd.prerun_work = entry->prerun_work;
  if (resilient) {
    // Every rung classifies under the job's criterion and sort.
    ResilientOptions ladder;
    ladder.guard = &guard;
    ladder.classify = options;
    out.resilient = classify_resilient(entry->circuit, ladder);
    out.rd.classify = out.resilient->classify;
  } else {
    out.rd.classify = classify_paths(entry->circuit, options);
  }
  out.cache_stats = cache.stats();
  return out;
}

JobResult Session::classify(const Job& job, ExecGuard& guard) {
  MetricsRegistry metrics;
  JobResult out = run_classification(job, guard, 0, metrics);
  record_classify_metrics(out.rd.classify, metrics);
  const std::string method = out.resilient ? "resilient"
                             : out.eco      ? "eco:" + job.heuristic
                                            : job.heuristic;
  out.report = classify_run_report(out.circuit_name, method, out.rd, &metrics);
  if (out.resilient) out.report.set("resilient", resilient_json(*out.resilient));
  if (out.eco) out.report.set("eco", eco_json(*out.eco, out.cone_cache));
  return out;
}

JobResult Session::atpg(const Job& job, ExecGuard& guard) {
  MetricsRegistry metrics;
  JobResult out = run_classification(job, guard, job.max_paths, metrics);
  record_classify_metrics(out.rd.classify, metrics);
  const ClassifyResult& classified = out.rd.classify;
  if (!classified.completed) {
    out.test_set.completed = false;
    out.test_set.abort_reason = classified.abort_reason;
  } else if (classified.kept_paths > job.max_paths) {
    out.over_path_cap = true;
    return out;
  } else {
    std::vector<LogicalPath> paths;
    paths.reserve(classified.kept_keys.size());
    for (const auto& key : classified.kept_keys)
      paths.push_back(LogicalPath::from_key(key));
    TestSetOptions options;
    options.guard = &guard;
    out.test_set = generate_test_set(*out.circuit, paths, options);
    metrics.add_counter("atpg.robust_nodes", out.test_set.robust_nodes);
    metrics.add_counter("atpg.nonrobust_nodes", out.test_set.nonrobust_nodes);
    metrics.add_timer("atpg.wall", out.test_set.wall_seconds);
  }
  out.report =
      atpg_run_report(out.circuit_name, out.rd, out.test_set, &metrics);
  return out;
}

}  // namespace rd::serve
