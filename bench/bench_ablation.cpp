// Ablation studies for the design choices DESIGN.md calls out:
//
//   (a) Input-sort quality: how much of the RD-set size is due to the
//       *heuristic choice* of the sort?  Compares natural / random
//       (min-median-max over seeds) / Heuristic 1 / Heuristic 2 /
//       inverse-Heuristic-2 sorts on the same circuits.
//   (b) Backward implications: rerun the classifiers with the
//       implication engine's backward reasoning disabled — the
//       forward-only variant finds fewer contradictions, keeping more
//       paths and showing what the "local implications" of [2] buy.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/exact.h"
#include "core/heuristics.h"
#include "gen/examples.h"
#include "gen/iscas_like.h"
#include "gen/pla_like.h"
#include "synth/synth.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace rd;
using namespace rd::bench;

double classify_with_random_sort(const Circuit& circuit,
                                 const ClassifyOptions& base,
                                 std::uint64_t seed) {
  // A random sort = ranking by random per-lead costs.
  Rng rng(seed);
  std::vector<BigUint> costs(circuit.num_leads());
  for (auto& cost : costs) cost = BigUint(rng.next_u64() >> 32);
  const InputSort sort = InputSort::from_lead_costs(circuit, costs);
  ClassifyOptions options = base;
  options.criterion = Criterion::kInputSort;
  options.sort = &sort;
  return classify_paths(circuit, options).rd_percent;
}

}  // namespace

int main(int argc, char** argv) {
  Options options = parse_options(argc, argv);
  BenchReport report(options, "ablation");
  std::vector<std::string> circuits =
      options.circuits.empty()
          ? std::vector<std::string>{"c432", "c499", "c880", "c2670"}
          : options.circuits;
  if (options.quick) circuits.resize(std::min<std::size_t>(2, circuits.size()));

  ClassifyOptions base;
  base.work_limit = options.work_limit;

  std::printf("Ablation (a): input-sort quality (%% RD identified)\n\n");
  TextTable sorts({"circuit", "natural", "rand-min", "rand-med", "rand-max",
                   "Heu1", "Heu2", "inv-Heu2"});
  for (const std::string& name : circuits) {
    const Circuit circuit = make_benchmark(name);

    const InputSort natural = InputSort::natural(circuit);
    ClassifyOptions natural_options = base;
    natural_options.criterion = Criterion::kInputSort;
    natural_options.sort = &natural;
    const double natural_rd =
        classify_paths(circuit, natural_options).rd_percent;

    std::vector<double> random_rd;
    for (std::uint64_t seed = 1; seed <= 7; ++seed)
      random_rd.push_back(classify_with_random_sort(circuit, base, seed));
    std::sort(random_rd.begin(), random_rd.end());

    Rng rng(2025);
    const auto heu1 = identify_rd_heuristic1(circuit, base, &rng);
    const auto heu2 = identify_rd_heuristic2(circuit, base, &rng);
    const auto inverse = identify_rd_heuristic2_inverse(circuit, base, &rng);

    sorts.add_row({name, format_percent(natural_rd),
                   format_percent(random_rd.front()),
                   format_percent(random_rd[random_rd.size() / 2]),
                   format_percent(random_rd.back()),
                   format_percent(heu1.classify.rd_percent),
                   format_percent(heu2.classify.rd_percent),
                   format_percent(inverse.classify.rd_percent)});
    if (report.enabled()) {
      JsonValue row = JsonValue::object();
      row.set("circuit", JsonValue::string(name));
      row.set("study", JsonValue::string("sort_quality"));
      row.set("natural_rd_percent", JsonValue::number(natural_rd));
      row.set("random_rd_percent_min", JsonValue::number(random_rd.front()));
      row.set("random_rd_percent_max", JsonValue::number(random_rd.back()));
      row.set("heu1_rd_percent",
              JsonValue::number(heu1.classify.rd_percent));
      row.set("heu2_rd_percent",
              JsonValue::number(heu2.classify.rd_percent));
      row.set("inverse_rd_percent",
              JsonValue::number(inverse.classify.rd_percent));
      report.add_row(std::move(row));
    }
    std::fprintf(stderr, "[ablation] sorts: %s done\n", name.c_str());
  }
  std::printf("%s\n", sorts.to_string().c_str());

  std::printf(
      "Ablation (b): backward implications in the classifier\n"
      "(kept = |LP^sup|; fewer kept = more RD identified)\n\n");
  TextTable backwards({"circuit", "criterion", "kept (full)",
                       "kept (forward-only)", "work (full)",
                       "work (forward-only)"});
  for (const std::string& name : circuits) {
    const Circuit circuit = make_benchmark(name);
    const InputSort sort = heuristic1_sort(circuit);
    struct Row {
      const char* label;
      Criterion criterion;
    };
    for (const Row& row : {Row{"FS", Criterion::kFunctionalSensitizable},
                           Row{"sort", Criterion::kInputSort}}) {
      ClassifyOptions with = base;
      with.criterion = row.criterion;
      with.sort = row.criterion == Criterion::kInputSort ? &sort : nullptr;
      ClassifyOptions without = with;
      without.backward_implications = false;
      const ClassifyResult full = classify_paths(circuit, with);
      const ClassifyResult forward_only = classify_paths(circuit, without);
      backwards.add_row({name, row.label, std::to_string(full.kept_paths),
                         std::to_string(forward_only.kept_paths),
                         std::to_string(full.work),
                         std::to_string(forward_only.work)});
      if (report.enabled()) {
        JsonValue json_row = JsonValue::object();
        json_row.set("circuit", JsonValue::string(name));
        json_row.set("study", JsonValue::string("backward_implications"));
        json_row.set("criterion", JsonValue::string(row.label));
        json_row.set("kept_full", JsonValue::number(full.kept_paths));
        json_row.set("kept_forward_only",
                     JsonValue::number(forward_only.kept_paths));
        json_row.set("backward_hits",
                     JsonValue::number(full.implication.backward));
        report.add_row(std::move(json_row));
      }
    }
    std::fprintf(stderr, "[ablation] backward: %s done\n", name.c_str());
  }
  std::printf("%s", backwards.to_string().c_str());
  std::printf(
      "\nforward-only keeps at least as many paths (its conflicts are a\n"
      "subset); the difference is the value of backward implications.\n");

  std::printf(
      "\nAblation (c): local-search refinement on top of Heuristic 2\n"
      "(kept paths; 30 swap iterations, one classification each)\n\n");
  TextTable refinement({"circuit", "Heu2 kept", "refined kept", "gain"});
  for (const std::string& name : circuits) {
    if (name != "c432" && name != "c880" && name != "c499") continue;
    const Circuit circuit = make_benchmark(name);
    Rng rng(7);
    const auto heu2 = identify_rd_heuristic2(circuit, base, &rng);
    const auto refined = refine_sort(circuit, heu2.sort, 30, rng, base);
    char gain[32];
    std::snprintf(gain, sizeof gain, "%lld",
                  static_cast<long long>(heu2.classify.kept_paths) -
                      static_cast<long long>(refined.classify.kept_paths));
    refinement.add_row({name, std::to_string(heu2.classify.kept_paths),
                        std::to_string(refined.classify.kept_paths), gain});
    std::fprintf(stderr, "[ablation] refine: %s done\n", name.c_str());
  }
  std::printf("%s", refinement.to_string().c_str());

  // Ablation (d): implication tiers.  The learned tier spends
  // failed-literal probes to refute survivors, so its kept set sits
  // between the exact FS set and the local-implication approximation.  On circuits small enough for the exhaustive
  // reference, the containment exact ⊆ learned ⊆ local is checked as
  // sets, not counts — a sound probe can only drop paths the exact
  // sweep also drops.
  std::printf(
      "\nAblation (d): implication tiers on the FS classifier\n"
      "(kept = |LP^sup|; exact = exhaustive vector sweep)\n\n");
  TextTable tiers({"circuit", "exact", "kept (off)", "kept (learned)",
                   "dropped", "sound"});
  bool tier_violation = false;
  {
    struct TierCase {
      std::string name;
      Circuit circuit;
    };
    std::vector<TierCase> cases;
    cases.push_back({"example", paper_example_circuit()});
    cases.push_back({"c17", c17()});
    // The one case where the learned tier provably earns its keep:
    // FS^sup over-keeps a path whose side constraints encode an
    // unsatisfiable CNF the drain never refutes locally.
    cases.push_back({"unsat-side", unsat_side_constraint_circuit()});
    if (!options.quick) {
      PlaProfile profile;
      profile.name = "pla-small";
      profile.num_inputs = 8;
      profile.num_outputs = 4;
      profile.num_cubes = 16;
      profile.min_literals = 2;
      profile.max_literals = 4;
      profile.seed = 11;
      cases.push_back({"pla-small",
                       synthesize_multilevel(make_pla_like(profile))});
    }
    for (TierCase& item : cases) {
      if (!options.circuits.empty() && !options.selected(item.name)) continue;
      ClassifyOptions tier_base = base;
      tier_base.criterion = Criterion::kFunctionalSensitizable;
      tier_base.collect_paths_limit = std::uint64_t{1} << 20;

      ClassifyOptions off = tier_base;
      ClassifyOptions learned = tier_base;
      learned.implications = ImplicationTier::kLearned;

      const ClassifyResult off_run = classify_paths(item.circuit, off);
      const ClassifyResult learned_run =
          classify_paths(item.circuit, learned);
      const LogicalPathSet exact = exact_kept_paths(
          item.circuit, Criterion::kFunctionalSensitizable);

      const LogicalPathSet local_set(off_run.kept_keys.begin(),
                                     off_run.kept_keys.end());
      const LogicalPathSet learned_set(learned_run.kept_keys.begin(),
                                       learned_run.kept_keys.end());
      const bool exact_in_learned = std::includes(
          learned_set.begin(), learned_set.end(), exact.begin(), exact.end());
      const bool learned_in_local = std::includes(
          local_set.begin(), local_set.end(), learned_set.begin(),
          learned_set.end());
      const bool sound = exact_in_learned && learned_in_local;
      if (!sound) {
        std::fprintf(stderr,
                     "[ablation] ERROR: %s tier containment violated "
                     "(exact⊆learned %d, learned⊆local %d)\n",
                     item.name.c_str(), exact_in_learned, learned_in_local);
        tier_violation = true;
      }

      tiers.add_row({item.name, std::to_string(exact.size()),
                     std::to_string(off_run.kept_paths),
                     std::to_string(learned_run.kept_paths),
                     std::to_string(learned_run.learned->dropped),
                     sound ? "yes" : "NO"});
      if (report.enabled()) {
        JsonValue json_row = JsonValue::object();
        json_row.set("circuit", JsonValue::string(item.name));
        json_row.set("study", JsonValue::string("implication_tier"));
        json_row.set("exact_kept",
                     JsonValue::number(
                         static_cast<std::uint64_t>(exact.size())));
        json_row.set("kept_off", JsonValue::number(off_run.kept_paths));
        json_row.set("kept_learned",
                     JsonValue::number(learned_run.kept_paths));
        json_row.set("learned_dropped",
                     JsonValue::number(learned_run.learned->dropped));
        json_row.set("learned_assignments",
                     JsonValue::number(learned_run.learned->assignments));
        json_row.set("sound", JsonValue::boolean(sound));
        report.add_row(std::move(json_row));
      }
      std::fprintf(stderr, "[ablation] tiers: %s done\n", item.name.c_str());
    }
  }
  std::printf("%s", tiers.to_string().c_str());
  std::printf(
      "\nlearned drops only paths the exhaustive sweep also excludes\n"
      "(soundness check).\n");
  report.write();
  return tier_violation ? 1 : 0;
}
