#include "core/heuristics.h"

#include "paths/counting.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace rd {

InputSort heuristic1_sort(const Circuit& circuit, Rng* tie_breaker) {
  const PathCounts counts(circuit);
  std::vector<BigUint> lead_cost(circuit.num_leads());
  for (LeadId lead = 0; lead < circuit.num_leads(); ++lead)
    lead_cost[lead] = counts.paths_through(lead);
  return InputSort::from_lead_costs(circuit, lead_cost, tie_breaker);
}

InputSort heuristic2_sort(const Circuit& circuit, Rng* tie_breaker,
                          ClassifyResult* fs_run, ClassifyResult* nr_run,
                          const ClassifyOptions* base) {
  ClassifyOptions options = base != nullptr ? *base : ClassifyOptions{};
  options.sort = nullptr;
  options.collect_lead_counts = true;
  options.collect_paths_limit = 0;

  ClassifyResult fs;
  ClassifyResult nr;
  const std::size_t threads =
      ThreadPool::resolve_num_threads(options.num_threads);
  if (threads >= 2) {
    // The two pre-runs are independent classifications; evaluate them
    // concurrently, splitting the thread budget between them.  Each
    // run's result is thread-count independent, so the sort is too.
    ClassifyOptions fs_options = options;
    fs_options.criterion = Criterion::kFunctionalSensitizable;
    fs_options.num_threads = (threads + 1) / 2;
    ClassifyOptions nr_options = options;
    nr_options.criterion = Criterion::kNonRobust;
    nr_options.num_threads = threads / 2;
    ThreadPool pool(2);
    pool.run({[&] { fs = classify_paths(circuit, fs_options); },
              [&] { nr = classify_paths(circuit, nr_options); }});
  } else {
    options.criterion = Criterion::kFunctionalSensitizable;
    fs = classify_paths(circuit, options);

    options.criterion = Criterion::kNonRobust;
    nr = classify_paths(circuit, options);
  }

  std::vector<BigUint> lead_cost(circuit.num_leads());
  for (LeadId lead = 0; lead < circuit.num_leads(); ++lead) {
    const std::uint64_t fs_count = fs.kept_controlling_per_lead[lead];
    const std::uint64_t nr_count = nr.kept_controlling_per_lead[lead];
    // T^sup(l) ⊆ FS^sup(l) path-wise (the NR constraints strictly
    // include the FS ones and implications are monotone), so the count
    // difference is the set difference |FS_c^sup(l) \ T_c^sup(l)|.
    lead_cost[lead] = BigUint(fs_count >= nr_count ? fs_count - nr_count : 0);
  }
  if (fs_run != nullptr) *fs_run = std::move(fs);
  if (nr_run != nullptr) *nr_run = std::move(nr);
  return InputSort::from_lead_costs(circuit, lead_cost, tie_breaker);
}

namespace {

RdIdentification classify_with_sort(const Circuit& circuit, InputSort sort,
                                    const ClassifyOptions& base) {
  ClassifyOptions options = base;
  options.criterion = Criterion::kInputSort;
  options.sort = &sort;
  ClassifyResult classify = classify_paths(circuit, options);
  return RdIdentification{std::move(sort), std::move(classify)};
}

/// Heuristic 2 end to end, its sort reversed for the inverse control.
/// A sort cut from an aborted pre-run is not Heuristic 2's sort: the
/// final run is skipped and the result carries that pre-run's abort.
RdIdentification identify_with_heuristic2_sort(const Circuit& circuit,
                                               const ClassifyOptions& base,
                                               Rng* tie_breaker,
                                               bool reversed) {
  Stopwatch watch;
  ClassifyResult fs_run;
  ClassifyResult nr_run;
  InputSort sort =
      heuristic2_sort(circuit, tie_breaker, &fs_run, &nr_run, &base);
  if (reversed) sort = sort.reversed();
  const double sort_seconds = watch.elapsed_seconds();
  RdIdentification result;
  if (fs_run.completed && nr_run.completed) {
    result = classify_with_sort(circuit, std::move(sort), base);
  } else {
    const ClassifyResult& aborted = fs_run.completed ? nr_run : fs_run;
    result.sort = std::move(sort);
    result.classify.completed = false;
    result.classify.abort_reason = aborted.abort_reason;
    result.classify.total_logical = aborted.total_logical;
  }
  result.sort_seconds = sort_seconds;
  result.prerun_work = fs_run.work + nr_run.work;
  return result;
}

}  // namespace

RdIdentification identify_rd_heuristic1(const Circuit& circuit,
                                        const ClassifyOptions& base,
                                        Rng* tie_breaker) {
  Stopwatch watch;
  InputSort sort = heuristic1_sort(circuit, tie_breaker);
  const double sort_seconds = watch.elapsed_seconds();
  RdIdentification result =
      classify_with_sort(circuit, std::move(sort), base);
  result.sort_seconds = sort_seconds;
  return result;
}

RdIdentification identify_rd_heuristic2(const Circuit& circuit,
                                        const ClassifyOptions& base,
                                        Rng* tie_breaker) {
  return identify_with_heuristic2_sort(circuit, base, tie_breaker,
                                       /*reversed=*/false);
}

RdIdentification identify_rd_heuristic2_inverse(const Circuit& circuit,
                                                const ClassifyOptions& base,
                                                Rng* tie_breaker) {
  return identify_with_heuristic2_sort(circuit, base, tie_breaker,
                                       /*reversed=*/true);
}

ClassifyResult classify_fus(const Circuit& circuit,
                            const ClassifyOptions& base) {
  ClassifyOptions options = base;
  options.criterion = Criterion::kFunctionalSensitizable;
  options.sort = nullptr;
  return classify_paths(circuit, options);
}

RdIdentification refine_sort(const Circuit& circuit, InputSort seed_sort,
                             std::size_t iterations, Rng& rng,
                             const ClassifyOptions& base) {
  // Gates where a swap can matter.
  std::vector<GateId> swappable;
  for (GateId id = 0; id < circuit.num_gates(); ++id)
    if (circuit.gate(id).fanins.size() >= 2) swappable.push_back(id);

  auto evaluate = [&](const InputSort& sort) {
    ClassifyOptions options = base;
    options.criterion = Criterion::kInputSort;
    options.sort = &sort;
    return classify_paths(circuit, options);
  };

  InputSort best_sort = std::move(seed_sort);
  ClassifyResult best = evaluate(best_sort);
  if (swappable.empty()) return RdIdentification{std::move(best_sort), best};

  for (std::size_t iteration = 0; iteration < iterations; ++iteration) {
    const GateId gate = swappable[rng.next_below(swappable.size())];
    const std::size_t fanin_count = circuit.gate(gate).fanins.size();
    const auto pin_a = static_cast<std::uint32_t>(rng.next_below(fanin_count));
    auto pin_b = static_cast<std::uint32_t>(rng.next_below(fanin_count));
    if (pin_a == pin_b) continue;
    InputSort candidate = best_sort.with_swapped_pins(gate, pin_a, pin_b);
    ClassifyResult result = evaluate(candidate);
    if (result.completed && result.kept_paths <= best.kept_paths) {
      // Accept non-worsening moves: plateau walks escape ties.
      best_sort = std::move(candidate);
      best = std::move(result);
    }
  }
  return RdIdentification{std::move(best_sort), std::move(best)};
}

}  // namespace rd
