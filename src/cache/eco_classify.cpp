#include "cache/eco_classify.h"

#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/heuristics.h"
#include "core/input_sort.h"
#include "netlist/cone_signature.h"
#include "paths/counting.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace rd {

namespace {

/// Fixed tie-break seed: the per-cone sort must be a pure function of
/// the cone (same structure => same sort), which a shared Rng stream
/// across cones would destroy.
constexpr std::uint64_t kConeSortSeed = 1;

struct ConeRun {
  ClassifyResult result;
  bool sort_aborted = false;
  AbortReason sort_abort_reason = AbortReason::kNone;
};

/// Builds the cone's sort and classifies it.  `limit` is the kept-key
/// budget for this cone (0 = no key collection).
ConeRun classify_cone(const Circuit& cone, const EcoOptions& options,
                      std::uint64_t limit, EcoStats* stats) {
  ClassifyOptions run = options.base;
  run.collect_lead_counts = false;
  run.collect_paths_limit = limit;
  run.compiled = nullptr;

  ConeRun out;
  InputSort sort = InputSort::natural(cone);
  if (options.sort_spec == "fus") {
    run.criterion = Criterion::kFunctionalSensitizable;
    run.sort = nullptr;
  } else {
    Stopwatch watch;
    Rng tie_breaker(kConeSortSeed);
    if (options.sort_spec == "1") {
      sort = heuristic1_sort(cone, &tie_breaker);
    } else {  // "2" | "inverse"
      ClassifyResult fs_run;
      ClassifyResult nr_run;
      sort = heuristic2_sort(cone, &tie_breaker, &fs_run, &nr_run,
                             &options.base);
      stats->prerun_work += fs_run.work + nr_run.work;
      if (!fs_run.completed || !nr_run.completed) {
        out.sort_aborted = true;
        const ClassifyResult& bad = fs_run.completed ? nr_run : fs_run;
        out.sort_abort_reason = bad.abort_reason == AbortReason::kNone
                                    ? AbortReason::kWorkBudget
                                    : bad.abort_reason;
        stats->sort_seconds += watch.elapsed_seconds();
        return out;
      }
      if (options.sort_spec == "inverse") sort = sort.reversed();
    }
    stats->sort_seconds += watch.elapsed_seconds();
    run.criterion = Criterion::kInputSort;
    run.sort = &sort;
  }
  out.result = classify_paths(cone, run);
  return out;
}

ConeRecordData record_from_result(const ClassifyResult& result) {
  ConeRecordData data;
  data.kept_paths = result.kept_paths;
  data.total_logical = result.total_logical.to_decimal();
  data.work = result.work;
  data.implication = result.implication;
  data.keys_complete = result.kept_keys.size() == result.kept_paths;
  std::vector<LeadId> segment;
  for (const std::vector<std::uint32_t>& key : result.kept_keys) {
    segment.assign(key.begin(), key.end() - 1);
    data.keys.append(segment, key.back() != 0);
  }
  return data;
}

}  // namespace

EcoResult classify_eco(const Circuit& circuit, ConeCacheStore& store,
                       const EcoOptions& options) {
  if (options.sort_spec != "1" && options.sort_spec != "2" &&
      options.sort_spec != "inverse" && options.sort_spec != "fus")
    throw std::invalid_argument("classify_eco: unknown sort spec '" +
                                options.sort_spec + "'");
  if (options.base.collect_lead_counts)
    throw std::invalid_argument(
        "classify_eco: collect_lead_counts is not supported in eco mode");
  if (options.base.implications == ImplicationTier::kLearned)
    throw std::invalid_argument(
        "classify_eco: the learned implication tier is not supported in eco "
        "mode (learned kept sets would poison cached cone records)");
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
      const ConeRun run = classify_cone(ex.cone, options, remaining,
                                        &out.stats);
      if (run.sort_aborted) {
        total.completed = false;
        total.abort_reason = run.sort_abort_reason;
        break;
      }
      if (!run.result.completed) {
        total.kept_paths += run.result.kept_paths;
        total.work += run.result.work;
        total.implication.merge(run.result.implication);
        total.completed = false;
        total.abort_reason = run.result.abort_reason == AbortReason::kNone
                                 ? AbortReason::kWorkBudget
                                 : run.result.abort_reason;
        break;
      }
      fresh = record_from_result(run.result);
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
  total.total_logical = PathCounts(circuit).total_logical();
  if (total.completed) {
    total.rd_paths = total.total_logical - BigUint(total.kept_paths);
    const double total_d = total.total_logical.to_double();
    const double rd_d = total.rd_paths.to_double();
    double percent = 0.0;
    if (total_d > 0) {
      percent = std::isfinite(total_d) && std::isfinite(rd_d)
                    ? 100.0 * rd_d / total_d
                    : 100.0;
    }
    total.rd_percent = std::isfinite(percent) ? percent : 0.0;
  }
  total.wall_seconds = watch.elapsed_seconds();
  return out;
}

}  // namespace rd
