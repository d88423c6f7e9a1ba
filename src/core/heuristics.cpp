#include "core/heuristics.h"

#include <stdexcept>
#include <string>

#include "paths/counting.h"
#include "util/stopwatch.h"

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

  // The pre-runs run one after the other, each on the whole thread
  // budget, and both run even when FS aborts: the caller reports the
  // work of both.
  options.criterion = Criterion::kFunctionalSensitizable;
  ClassifyResult fs = classify_paths(circuit, options);
  options.criterion = Criterion::kNonRobust;
  ClassifyResult nr = classify_paths(circuit, options);

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

bool is_sort_spec(std::string_view spec) {
  return spec == "1" || spec == "2" || spec == "inverse" || spec == "fus";
}

InputSortBuild build_input_sort(const Circuit& circuit, std::string_view spec,
                                const ClassifyOptions& base,
                                Rng* tie_breaker) {
  if (!is_sort_spec(spec))
    throw std::invalid_argument("unknown sort spec '" + std::string(spec) +
                                "' (expected 1, 2, inverse or fus)");
  InputSortBuild build;
  Stopwatch watch;
  if (spec == "1") {
    build.sort = heuristic1_sort(circuit, tie_breaker);
  } else if (spec != "fus") {
    ClassifyResult fs_run;
    ClassifyResult nr_run;
    InputSort sort =
        heuristic2_sort(circuit, tie_breaker, &fs_run, &nr_run, &base);
    build.prerun_work = fs_run.work + nr_run.work;
    if (fs_run.completed && nr_run.completed) {
      build.sort = spec == "inverse" ? sort.reversed() : std::move(sort);
    } else {
      const ClassifyResult& prerun = fs_run.completed ? nr_run : fs_run;
      build.aborted.emplace();
      build.aborted->completed = false;
      build.aborted->abort_reason = prerun.abort_reason;
      build.aborted->total_logical = prerun.total_logical;
    }
  }
  build.seconds = watch.elapsed_seconds();
  return build;
}

namespace {

/// `spec`'s sort, then the classification under (π1)-(π3); an aborted
/// pre-run skips the final run and is reported in its place.
RdIdentification identify_with_spec(const Circuit& circuit,
                                    std::string_view spec,
                                    const ClassifyOptions& base,
                                    Rng* tie_breaker) {
  InputSortBuild build = build_input_sort(circuit, spec, base, tie_breaker);
  RdIdentification result;
  if (build.aborted) {
    result.classify = std::move(*build.aborted);
  } else {
    result.sort = std::move(*build.sort);
    ClassifyOptions options = base;
    options.criterion = Criterion::kInputSort;
    options.sort = &result.sort;
    result.classify = classify_paths(circuit, options);
  }
  result.sort_seconds = build.seconds;
  result.prerun_work = build.prerun_work;
  return result;
}

}  // namespace

RdIdentification identify_rd_heuristic1(const Circuit& circuit,
                                        const ClassifyOptions& base,
                                        Rng* tie_breaker) {
  return identify_with_spec(circuit, "1", base, tie_breaker);
}

RdIdentification identify_rd_heuristic2(const Circuit& circuit,
                                        const ClassifyOptions& base,
                                        Rng* tie_breaker) {
  return identify_with_spec(circuit, "2", base, tie_breaker);
}

RdIdentification identify_rd_heuristic2_inverse(const Circuit& circuit,
                                                const ClassifyOptions& base,
                                                Rng* tie_breaker) {
  return identify_with_spec(circuit, "inverse", base, tie_breaker);
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
