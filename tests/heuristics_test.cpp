// Tests for Section V: the input-sort heuristics.
//
// On the paper's example circuit the heuristics behave exactly as the
// paper's narrative implies: Heuristic 2's FS\T cost function breaks
// the tie that Heuristic 1's path counting cannot, and deterministically
// finds the optimum assignment (|LP| = 5, Figures 4-5), while the
// inverse sort degrades the result.
#include <gtest/gtest.h>

#include "core/exact.h"
#include "core/heuristics.h"
#include "gen/examples.h"
#include "gen/iscas_like.h"
#include "paths/counting.h"
#include "util/rng.h"

namespace rd {
namespace {

TEST(Heuristics, Heuristic1CountsPaths) {
  const Circuit circuit = paper_example_circuit();
  const InputSort sort = heuristic1_sort(circuit);
  // Gate y has inputs (a, h): |P(a->y)| = 1 < |P(h->y)| = 3, so a
  // must rank first; gate h has inputs (g1, c): 2 vs 1, so c first.
  const GateId y = circuit.gate(circuit.outputs()[0]).fanins[0];
  EXPECT_LT(sort.rank(y, 0), sort.rank(y, 1));  // a before h
  GateId h = kNullGate;
  for (GateId id = 0; id < circuit.num_gates(); ++id)
    if (circuit.gate(id).name == "h") h = id;
  ASSERT_NE(h, kNullGate);
  EXPECT_LT(sort.rank(h, 1), sort.rank(h, 0));  // c before g1
}

TEST(Heuristics, Heuristic2BreaksTheTieHeuristic1CannotSee) {
  const Circuit circuit = paper_example_circuit();
  // At gate g1 the two leads (b, c) tie on |P(l)| = 1, so Heuristic 1
  // cannot distinguish them; the FS\T costs are 1 (b-side) vs 0
  // (c-side), so Heuristic 2 must put c first.
  GateId g1 = kNullGate;
  for (GateId id = 0; id < circuit.num_gates(); ++id)
    if (circuit.gate(id).name == "g1") g1 = id;
  ASSERT_NE(g1, kNullGate);

  ClassifyResult fs_run;
  ClassifyResult nr_run;
  const InputSort sort = heuristic2_sort(circuit, nullptr, &fs_run, &nr_run);
  EXPECT_EQ(fs_run.kept_paths, 8u);
  EXPECT_EQ(nr_run.kept_paths, 5u);
  EXPECT_LT(sort.rank(g1, 1), sort.rank(g1, 0));  // c before b
}

TEST(Heuristics, Heuristic2FindsTheOptimumOnThePaperExample) {
  const Circuit circuit = paper_example_circuit();
  const RdIdentification result = identify_rd_heuristic2(circuit);
  EXPECT_EQ(result.classify.kept_paths, 5u);  // Figure 4/5 optimum
  EXPECT_EQ(result.classify.rd_paths.to_u64(), 3u);
  const auto exact_optimum = exact_min_lp_sigma(circuit);
  ASSERT_TRUE(exact_optimum.has_value());
  EXPECT_EQ(result.classify.kept_paths, *exact_optimum);
}

TEST(Heuristics, InverseSortIsNoBetter) {
  const Circuit circuit = paper_example_circuit();
  const auto heu2 = identify_rd_heuristic2(circuit);
  const auto inverse = identify_rd_heuristic2_inverse(circuit);
  EXPECT_GE(inverse.classify.kept_paths, heu2.classify.kept_paths);
  // On the example the inverse choice keeps strictly more paths.
  EXPECT_GT(inverse.classify.kept_paths, heu2.classify.kept_paths);
}

TEST(Heuristics, FusBaselineMatchesFsClassifier) {
  const Circuit circuit = paper_example_circuit();
  const ClassifyResult fus = classify_fus(circuit);
  EXPECT_EQ(fus.kept_paths, 8u);
  EXPECT_EQ(fus.rd_paths.to_u64(), 0u);  // FUS share of the example is 0
}

TEST(Heuristics, OrderingHoldsOnRandomCircuits) {
  // FUS-kept ⊇ Heu-kept (any sort); Heu2 never worse than the
  // FS bound; all results bounded below by the NR set.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    IscasProfile profile;
    profile.name = "t" + std::to_string(seed);
    profile.num_inputs = 7;
    profile.num_outputs = 3;
    profile.num_gates = 30;
    profile.num_levels = 6;
    profile.xor_fraction = 0.15;
    profile.seed = seed;
    const Circuit circuit = make_iscas_like(profile);

    const ClassifyResult fs = classify_fus(circuit);
    ClassifyOptions nr_options;
    nr_options.criterion = Criterion::kNonRobust;
    const ClassifyResult nr = classify_paths(circuit, nr_options);

    Rng rng(seed);
    const auto heu1 = identify_rd_heuristic1(circuit, {}, &rng);
    const auto heu2 = identify_rd_heuristic2(circuit, {}, &rng);

    for (const auto* result : {&heu1, &heu2}) {
      EXPECT_LE(result->classify.kept_paths, fs.kept_paths) << seed;
      EXPECT_GE(result->classify.kept_paths, nr.kept_paths) << seed;
    }
  }
}

TEST(Heuristics, Heuristic2ReportsAnAbortedPrerun) {
  // At this work limit a pre-run aborts, while the final run under the
  // sort cut from it would complete with a wrong must-test count.  The
  // result must carry the pre-run's abort instead.
  const Circuit circuit = make_benchmark("c432");
  for (const std::size_t threads : {1u, 4u}) {
    ClassifyOptions base;
    base.work_limit = 190000;
    base.num_threads = threads;
    ClassifyResult fs_run;
    ClassifyResult nr_run;
    heuristic2_sort(circuit, nullptr, &fs_run, &nr_run, &base);
    ASSERT_FALSE(fs_run.completed && nr_run.completed);
    for (const bool inverse : {false, true}) {
      Rng rng(1);
      const RdIdentification rd =
          inverse ? identify_rd_heuristic2_inverse(circuit, base, &rng)
                  : identify_rd_heuristic2(circuit, base, &rng);
      EXPECT_FALSE(rd.classify.completed);
      EXPECT_EQ(rd.classify.abort_reason, AbortReason::kWorkBudget);
      EXPECT_EQ(rd.classify.kept_paths, 0u);
      EXPECT_EQ(rd.classify.work, 0u);
      EXPECT_EQ(rd.classify.total_logical,
                PathCounts(circuit).total_logical());
      if (threads == 1) EXPECT_EQ(rd.prerun_work, fs_run.work + nr_run.work);
    }
  }
}

TEST(Heuristics, PrerunsUseTheWholeThreadBudget) {
  // The FS and NR pre-runs run one after the other, each on the whole
  // pool, not on half of it each.
  const Circuit circuit = make_benchmark("c432");
  ClassifyOptions base;
  base.num_threads = 4;
  ClassifyResult fs_run;
  ClassifyResult nr_run;
  heuristic2_sort(circuit, nullptr, &fs_run, &nr_run, &base);
  EXPECT_EQ(fs_run.worker_stats.size(), 4u);
  EXPECT_EQ(nr_run.worker_stats.size(), 4u);
}

TEST(Heuristics, TieBreakRandomizationIsSeedDeterministic) {
  const Circuit circuit = make_benchmark("c432");
  Rng rng_a(99);
  Rng rng_b(99);
  const auto a = identify_rd_heuristic1(circuit, {}, &rng_a);
  const auto b = identify_rd_heuristic1(circuit, {}, &rng_b);
  EXPECT_EQ(a.classify.kept_paths, b.classify.kept_paths);
  EXPECT_EQ(a.classify.rd_percent, b.classify.rd_percent);
}

TEST(Heuristics, RefineSortNeverWorsens) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    IscasProfile profile;
    profile.name = "rf" + std::to_string(seed);
    profile.num_inputs = 7;
    profile.num_outputs = 3;
    profile.num_gates = 28;
    profile.num_levels = 5;
    profile.xor_fraction = 0.15;
    profile.seed = seed;
    const Circuit circuit = make_iscas_like(profile);
    Rng rng(seed);
    const auto heu2 = identify_rd_heuristic2(circuit, {}, &rng);
    const auto refined =
        refine_sort(circuit, heu2.sort, /*iterations=*/40, rng);
    EXPECT_LE(refined.classify.kept_paths, heu2.classify.kept_paths) << seed;
    EXPECT_TRUE(refined.classify.completed);
  }
}

TEST(Heuristics, RefineSortRecoversFromBadSeedSort) {
  // Starting from the inverse sort, local search must claw back a
  // meaningful share of the gap to Heuristic 2 on the paper example
  // (the search space has only 3 binary choices).
  const Circuit circuit = paper_example_circuit();
  Rng rng(5);
  const InputSort inverse = heuristic2_sort(circuit).reversed();
  const auto refined = refine_sort(circuit, inverse, 60, rng);
  EXPECT_EQ(refined.classify.kept_paths, 5u);  // the optimum
}

TEST(Heuristics, SwappedPinsIsInvolution) {
  const Circuit circuit = c17();
  const InputSort sort = heuristic1_sort(circuit);
  const GateId gate = circuit.topo_order().back();  // some NAND
  GateId target = kNullGate;
  for (GateId id = 0; id < circuit.num_gates(); ++id)
    if (circuit.gate(id).fanins.size() == 2) target = id;
  ASSERT_NE(target, kNullGate);
  const InputSort once = sort.with_swapped_pins(target, 0, 1);
  EXPECT_NE(once.rank(target, 0), sort.rank(target, 0));
  const InputSort twice = once.with_swapped_pins(target, 0, 1);
  for (std::uint32_t pin = 0; pin < 2; ++pin)
    EXPECT_EQ(twice.rank(target, pin), sort.rank(target, pin));
  (void)gate;
}

TEST(Heuristics, ReversedSortInvertsEveryGateOrder) {
  const Circuit circuit = c17();
  const InputSort sort = heuristic1_sort(circuit);
  const InputSort reversed = sort.reversed();
  for (GateId id = 0; id < circuit.num_gates(); ++id) {
    const std::size_t n = circuit.gate(id).fanins.size();
    for (std::uint32_t pin = 0; pin < n; ++pin)
      EXPECT_EQ(reversed.rank(id, pin), n - 1 - sort.rank(id, pin));
  }
}

}  // namespace
}  // namespace rd
