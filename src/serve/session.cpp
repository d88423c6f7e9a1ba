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

/// Resolves the request's "circuit" object to (name, content key
/// text, optional generator).  Builtins are rendered to text for the
/// cache key (content identity) but rebuilt through the generator on a
/// cache miss, so a daemon-built builtin is the *same* Circuit object
/// graph — gate numbering included — that the one-shot CLI classifies.
/// The builtin key text carries a marker prefix so it can never
/// collide with an inline netlist whose text happens to match the
/// rendered form (the two parse paths may number gates differently).
void resolve_circuit(const JsonValue& request, std::string* name,
                     std::string* key_text,
                     std::function<Circuit()>* generator) {
  const JsonValue* circuit = request.find("circuit");
  if (circuit == nullptr || !circuit->is_object())
    throw BadRequest("field 'circuit' must be an object");
  const JsonValue* builtin = circuit->find("builtin");
  if (builtin != nullptr) {
    if (!builtin->is_string())
      throw BadRequest("field 'circuit.builtin' must be a string");
    const std::string spec = builtin->as_string();
    Circuit generated;
    try {
      if (spec == "example")
        generated = paper_example_circuit();
      else if (spec == "c17")
        generated = c17();
      else
        generated = make_benchmark(spec);
    } catch (const std::invalid_argument& error) {
      throw BadRequest("unknown builtin circuit '" + spec +
                       "': " + error.what());
    }
    *name = generated.name();
    *key_text = "builtin\n" + write_bench_string(generated);
    *generator = [spec] {
      if (spec == "example") return paper_example_circuit();
      if (spec == "c17") return c17();
      return make_benchmark(spec);
    };
    return;
  }
  const JsonValue* bench = circuit->find("bench");
  if (bench == nullptr || !bench->is_string())
    throw BadRequest("field 'circuit' needs 'builtin' or a 'bench' string");
  *key_text = bench->as_string();
  *name = get_string(*circuit, "name", "request");
  *generator = nullptr;
}

/// Per-request guard assembly, mirroring the CLI's GuardFlags: the
/// same QoS knobs and the same deterministic fault injection, but
/// scoped to one request and chained onto the server's cancel token.
struct GuardSpec {
  double deadline_ms = 0.0;
  std::uint64_t max_memory_mb = 0;
  std::uint64_t inject_abort_after = 0;
  std::string inject_abort_reason = "work_budget";

  static GuardSpec from_request(const JsonValue& request) {
    GuardSpec spec;
    const JsonValue* guard = request.find("guard");
    if (guard == nullptr) return spec;
    if (!guard->is_object())
      throw BadRequest("field 'guard' must be an object");
    spec.deadline_ms = get_nonneg_double(*guard, "deadline_ms", 0.0);
    spec.max_memory_mb = get_uint(*guard, "max_memory_mb", 0);
    spec.inject_abort_after = get_uint(*guard, "inject_abort_after", 0);
    spec.inject_abort_reason =
        get_string(*guard, "inject_abort_reason", "work_budget");
    return spec;
  }

  ExecGuardOptions options(CancellationToken* cancel) const {
    ExecGuardOptions options;
    options.deadline_seconds = deadline_ms / 1000.0;
    options.memory_limit_bytes = max_memory_mb * 1024 * 1024;
    options.cancel = cancel;
    return options;
  }

  void arm(ExecGuard& guard) const {
    if (inject_abort_after == 0) return;
    AbortReason reason;
    if (inject_abort_reason == "deadline")
      reason = AbortReason::kDeadline;
    else if (inject_abort_reason == "memory")
      reason = AbortReason::kMemory;
    else if (inject_abort_reason == "cancelled")
      reason = AbortReason::kCancelled;
    else if (inject_abort_reason == "work_budget")
      reason = AbortReason::kWorkBudget;
    else
      throw BadRequest("unknown guard.inject_abort_reason '" +
                       inject_abort_reason + "'");
    guard.inject_trip_at(inject_abort_after, reason);
  }
};

/// The {"serve": ...} payload attached to every job report.  Beyond
/// the per-request hit/miss verdict it snapshots the shared cache's
/// pressure counters (evictions, build failures), so a client can see
/// churn without a separate stats round-trip.
JsonValue serve_payload(std::uint64_t id, bool has_id, bool cache_hit,
                        std::uint64_t content_key,
                        const CircuitCache* cache) {
  JsonValue payload = JsonValue::object();
  payload.set("id", has_id ? JsonValue::number(id) : JsonValue::null());
  payload.set("cache_hit", JsonValue::boolean(cache_hit));
  payload.set("circuit_key", JsonValue::number(content_key));
  if (cache != nullptr) {
    const CacheStats stats = cache->stats();
    payload.set("cache_evictions", JsonValue::number(stats.evictions));
    payload.set("cache_failures", JsonValue::number(stats.failures));
  }
  return payload;
}

std::string heuristic_spec(const JsonValue& request) {
  const std::string heuristic = get_string(request, "heuristic", "2");
  if (heuristic != "1" && heuristic != "2" && heuristic != "inverse" &&
      heuristic != "fus")
    throw BadRequest("field 'heuristic' must be 1, 2, inverse or fus");
  return heuristic;
}

}  // namespace

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
    if (op == "classify") {
      outcome.response = run_classify(request, id, has_id);
      return outcome;
    }
    if (op == "atpg") {
      outcome.response = run_atpg(request, id, has_id);
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

JsonValue Session::run_classify(const JsonValue& request, std::uint64_t id,
                                bool has_id) {
  std::string name;
  std::string bench_text;
  std::function<Circuit()> generator;
  resolve_circuit(request, &name, &bench_text, &generator);
  const std::string heuristic = heuristic_spec(request);

  ClassifyOptions base;
  base.work_limit = get_uint(request, "work_limit", base.work_limit);
  base.num_threads = static_cast<std::size_t>(
      get_uint(request, "threads", base.num_threads));
  // The lane engine is gone (DESIGN.md "Removed accelerators"): a
  // request that still names a lane width is refused, like the CLI's
  // unknown option, rather than silently run on the scalar engine.
  if (request.find("lanes") != nullptr)
    throw BadRequest("field 'lanes' was removed; classification is scalar");
  const std::string implications = get_string(request, "implications", "off");
  if (implications == "learned") {
    base.implications = ImplicationTier::kLearned;
  } else if (implications != "off") {
    throw BadRequest("field 'implications' must be off or learned");
  }

  const GuardSpec guard_spec = GuardSpec::from_request(request);
  ExecGuard guard(guard_spec.options(config_.cancel));
  guard_spec.arm(guard);
  base.guard = &guard;

  if (get_bool(request, "incremental", false)) {
    // Cone-cached ECO mode: the compiled-circuit cache is bypassed —
    // reuse lives at cone granularity in the shared ConeCacheStore,
    // which survives across requests (and daemon restarts when the
    // server persists it).
    if (base.implications == ImplicationTier::kLearned)
      throw BadRequest(
          "'implications': 'learned' does not compose with incremental mode "
          "(learned kept sets would poison cached cone records)");
    Circuit circuit;
    try {
      circuit = generator ? generator() : read_bench_string(bench_text, name);
    } catch (const std::exception& error) {
      throw BadRequest(std::string("cannot load circuit: ") + error.what());
    }
    ConeCacheStore private_store;
    ConeCacheStore& store =
        config_.cone_cache != nullptr ? *config_.cone_cache : private_store;
    EcoOptions eco_options;
    eco_options.sort_spec = heuristic;
    eco_options.base = base;
    EcoResult eco = classify_eco(circuit, store, eco_options);

    RdIdentification rd;
    rd.classify = std::move(eco.classify);
    rd.sort_seconds = eco.stats.sort_seconds;
    rd.prerun_work = eco.stats.prerun_work;
    MetricsRegistry metrics;
    record_classify_metrics(rd.classify, metrics);
    JsonValue report =
        classify_run_report(circuit.name(), "eco:" + heuristic, rd, &metrics);
    const ConeCacheStore::Stats store_stats = store.stats();
    report.set("eco", eco_json(eco.stats, store_stats));
    JsonValue payload = serve_payload(
        id, has_id, /*cache_hit=*/false,
        CircuitCache::content_hash(bench_text, heuristic), config_.cache);
    JsonValue cone_cache_json = JsonValue::object();
    cone_cache_json.set("hits", JsonValue::number(eco.stats.hits));
    cone_cache_json.set("misses", JsonValue::number(eco.stats.misses));
    cone_cache_json.set("recovered",
                        JsonValue::number(store_stats.recovery.total()));
    payload.set("cone_cache", std::move(cone_cache_json));
    report.set("serve", std::move(payload));
    return report;
  }

  // One-shot mode (no shared cache) still funnels through a private
  // single-entry cache: identical build path, zero reuse.
  CircuitCache one_shot(1);
  CircuitCache& cache = config_.cache != nullptr ? *config_.cache : one_shot;
  const std::uint64_t content_key =
      CircuitCache::content_hash(bench_text, heuristic);

  CircuitCache::BuildOptions build;
  build.num_threads = base.num_threads;
  build.work_limit = base.work_limit;
  build.guard = &guard;
  bool cache_hit = false;
  CircuitCache::EntryPtr entry;
  try {
    entry = cache.get(bench_text, name, heuristic, build, &cache_hit,
                      generator);
  } catch (const GuardTrippedError& tripped) {
    // Build aborted under this request's own budget: report it like
    // any aborted run — typed reason, schema-valid partial report.
    RdIdentification rd;
    rd.classify.completed = false;
    rd.classify.abort_reason = tripped.reason();
    MetricsRegistry metrics;
    record_classify_metrics(rd.classify, metrics);
    JsonValue report =
        classify_run_report(name, heuristic, rd, &metrics);
    report.set("serve", serve_payload(id, has_id, false, content_key, &cache));
    return report;
  } catch (const std::invalid_argument& error) {
    throw BadRequest(error.what());
  } catch (const std::runtime_error& error) {
    throw BadRequest(std::string("cannot load circuit: ") + error.what());
  }

  ClassifyOptions options = base;
  if (entry->sort.has_value()) {
    options.criterion = Criterion::kInputSort;
    options.sort = &*entry->sort;
  } else {
    options.criterion = Criterion::kFunctionalSensitizable;
    options.sort = nullptr;
  }
  options.compiled = entry->compiled.get();

  RdIdentification rd;
  rd.classify = classify_paths(entry->circuit, options);
  rd.sort_seconds = entry->sort_seconds;
  rd.prerun_work = entry->prerun_work;

  MetricsRegistry metrics;
  record_classify_metrics(rd.classify, metrics);
  JsonValue report =
      classify_run_report(entry->circuit.name(), heuristic, rd, &metrics);
  report.set("serve",
             serve_payload(id, has_id, cache_hit, content_key, &cache));
  return report;
}

JsonValue Session::run_atpg(const JsonValue& request, std::uint64_t id,
                            bool has_id) {
  std::string name;
  std::string bench_text;
  std::function<Circuit()> generator;
  resolve_circuit(request, &name, &bench_text, &generator);
  const std::uint64_t max_paths = get_uint(request, "max_paths", 20000);

  ClassifyOptions options;
  options.collect_paths_limit = max_paths;
  options.num_threads =
      static_cast<std::size_t>(get_uint(request, "threads", 1));

  const GuardSpec guard_spec = GuardSpec::from_request(request);
  ExecGuard guard(guard_spec.options(config_.cancel));
  guard_spec.arm(guard);
  options.guard = &guard;

  CircuitCache one_shot(1);
  CircuitCache& cache = config_.cache != nullptr ? *config_.cache : one_shot;
  const std::uint64_t content_key = CircuitCache::content_hash(bench_text, "2");

  CircuitCache::BuildOptions build;
  build.num_threads = options.num_threads;
  build.work_limit = options.work_limit;
  build.guard = &guard;
  bool cache_hit = false;
  CircuitCache::EntryPtr entry;
  try {
    entry = cache.get(bench_text, name, "2", build, &cache_hit, generator);
  } catch (const GuardTrippedError& tripped) {
    RdIdentification rd;
    rd.classify.completed = false;
    rd.classify.abort_reason = tripped.reason();
    GeneratedTestSet never_ran;
    never_ran.completed = false;
    never_ran.abort_reason = tripped.reason();
    MetricsRegistry metrics;
    record_classify_metrics(rd.classify, metrics);
    JsonValue report = atpg_run_report(name, rd, never_ran, &metrics);
    report.set("serve", serve_payload(id, has_id, false, content_key, &cache));
    return report;
  } catch (const std::invalid_argument& error) {
    throw BadRequest(error.what());
  } catch (const std::runtime_error& error) {
    throw BadRequest(std::string("cannot load circuit: ") + error.what());
  }

  options.criterion = Criterion::kInputSort;
  options.sort = &*entry->sort;
  options.compiled = entry->compiled.get();

  RdIdentification rd;
  rd.classify = classify_paths(entry->circuit, options);
  rd.sort_seconds = entry->sort_seconds;
  rd.prerun_work = entry->prerun_work;

  MetricsRegistry metrics;
  record_classify_metrics(rd.classify, metrics);

  if (!rd.classify.completed) {
    const AbortReason reason = rd.classify.abort_reason == AbortReason::kNone
                                   ? AbortReason::kWorkBudget
                                   : rd.classify.abort_reason;
    GeneratedTestSet never_ran;
    never_ran.completed = false;
    never_ran.abort_reason = reason;
    JsonValue report =
        atpg_run_report(entry->circuit.name(), rd, never_ran, &metrics);
    report.set("serve", serve_payload(id, has_id, cache_hit, content_key, &cache));
    return report;
  }
  if (rd.classify.kept_paths > max_paths)
    throw BadRequest("too many must-test paths for ATPG (cap " +
                     std::to_string(max_paths) + "); raise max_paths");

  std::vector<LogicalPath> paths;
  paths.reserve(rd.classify.kept_keys.size());
  for (const auto& key : rd.classify.kept_keys) {
    LogicalPath path;
    path.path.leads.assign(key.begin(), key.end() - 1);
    path.final_pi_value = key.back() != 0;
    paths.push_back(std::move(path));
  }
  TestSetOptions testset_options;
  testset_options.guard = &guard;
  const GeneratedTestSet set =
      generate_test_set(entry->circuit, paths, testset_options);

  metrics.add_counter("atpg.robust_nodes", set.robust_nodes);
  metrics.add_counter("atpg.nonrobust_nodes", set.nonrobust_nodes);
  metrics.add_timer("atpg.wall", set.wall_seconds);
  JsonValue report = atpg_run_report(entry->circuit.name(), rd, set, &metrics);
  report.set("serve", serve_payload(id, has_id, cache_hit, content_key, &cache));
  return report;
}

}  // namespace rd::serve
