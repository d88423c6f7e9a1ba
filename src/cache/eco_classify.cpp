#include "cache/eco_classify.h"

#include <stdexcept>
#include <utility>
#include <vector>

#include "core/classify_dfs.h"
#include "core/heuristics.h"
#include "netlist/cone_signature.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace rd {

namespace {

/// Fixed tie-break seed: the per-cone sort must be a pure function of
/// the cone (same structure => same sort), which a shared Rng stream
/// across cones would destroy.
constexpr std::uint64_t kConeSortSeed = 1;

/// Builds the cone's sort and classifies it.  `limit` is the kept-key
/// budget for this cone (0 = no key collection).  An aborted pre-run
/// comes back as the cone's aborted result.
ClassifyResult classify_cone(const Circuit& cone, const EcoOptions& options,
                             std::uint64_t limit, EcoStats* stats) {
  Rng tie_breaker(kConeSortSeed);
  InputSortBuild build =
      build_input_sort(cone, options.sort_spec, options.base, &tie_breaker);
  stats->sort_seconds += build.seconds;
  stats->prerun_work += build.prerun_work;
  if (build.aborted) return std::move(*build.aborted);

  ClassifyOptions run = options.base;
  run.collect_lead_counts = false;
  run.collect_paths_limit = limit;
  run.compiled = nullptr;
  run.criterion = build.sort ? Criterion::kInputSort
                             : Criterion::kFunctionalSensitizable;
  run.sort = build.sort ? &*build.sort : nullptr;
  return classify_paths(cone, run);
}

ConeRecordData record_from_result(const ClassifyResult& result) {
  ConeRecordData data;
  data.kept_paths = result.kept_paths;
  data.total_logical = result.total_logical.to_decimal();
  data.work = result.work;
  data.implication = result.implication;
  data.keys_complete = result.kept_keys.size() == result.kept_paths;
  for (const std::vector<std::uint32_t>& key : result.kept_keys) {
    const LogicalPath path = LogicalPath::from_key(key);
    data.keys.append(path.path.leads, path.final_pi_value);
  }
  return data;
}

}  // namespace

EcoResult classify_eco(const Circuit& circuit, ConeCacheStore& store,
                       const EcoOptions& options) {
  if (!is_sort_spec(options.sort_spec))
    throw std::invalid_argument("classify_eco: unknown sort spec '" +
                                options.sort_spec + "'");
  if (options.base.collect_lead_counts)
    throw std::invalid_argument(
        "classify_eco: collect_lead_counts is not supported in eco mode");
  if (options.base.sort != nullptr || options.base.compiled != nullptr)
    throw std::invalid_argument(
        "classify_eco: base.sort/base.compiled must be null "
        "(the driver builds per-cone sorts)");

  Stopwatch watch;
  EcoResult out;
  ClassifyResult& total = out.classify;
  const std::uint64_t key_limit = options.base.collect_paths_limit;

  for (const GateId po : circuit.outputs()) {
    const ConeExtraction ex = extract_cone_canonical(circuit, po);
    const std::vector<std::uint8_t> canonical =
        cone_canonical_bytes(ex.cone, options.sort_spec);
    const std::uint64_t signature = cone_signature(canonical);
    ++out.stats.cones;

    const std::uint64_t remaining =
        key_limit == 0
            ? 0
            : key_limit - static_cast<std::uint64_t>(total.kept_keys.size());

    std::shared_ptr<const ConeRecord> record = store.find(signature, canonical);
    // A cached record must cover this run's key demand: either it
    // holds every survivor or at least as many leading keys as we
    // still need.  Anything less is a miss (and the fresh, richer
    // record replaces it).
    if (record != nullptr && remaining > 0 && !record->data.keys_complete &&
        record->data.keys.size() < remaining)
      record = nullptr;

    ConeRecordData fresh;
    if (record == nullptr) {
      ++out.stats.misses;
      const ClassifyResult run =
          classify_cone(ex.cone, options, remaining, &out.stats);
      if (!run.completed) {
        total.kept_paths += run.kept_paths;
        total.work += run.work;
        total.implication.merge(run.implication);
        total.completed = false;
        total.abort_reason = run.abort_reason;
        break;
      }
      fresh = record_from_result(run);
      store.put(signature, canonical, fresh);
      ++out.stats.stored;
    } else {
      ++out.stats.hits;
    }

    const ConeRecordData& data = record != nullptr ? record->data : fresh;
    total.kept_paths += data.kept_paths;
    total.work += data.work;
    total.implication.merge(data.implication);
    const std::uint64_t take =
        std::min<std::uint64_t>(remaining, data.keys.size());
    for (std::uint64_t i = 0; i < take; ++i) {
      std::vector<std::uint32_t> key = data.keys.key(i);
      for (std::size_t w = 0; w + 1 < key.size(); ++w)
        key[w] = ex.parent_lead[key[w]];
      total.kept_keys.push_back(std::move(key));
    }
  }

  // Whole-circuit structural total, abort or not — exactly what the
  // monolithic engines report.  On completed runs it provably equals
  // the sum of the per-cone record totals (every logical path ends at
  // exactly one PO); the tests pin that invariant.
  internal::finish_classify_result(circuit, &total);
  total.wall_seconds = watch.elapsed_seconds();
  return out;
}

}  // namespace rd
