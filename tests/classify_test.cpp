// Tests for Section IV: the fast implicit-enumeration classifier.
//
// Validation strategy: on small circuits the exact kept-path sets
// (FS(C), T(C), LP(σ^π)) are computable by exhaustive enumeration
// (core/exact); the classifier must return a *superset* of the exact
// set (its verdicts on pruned paths are proofs), and on these circuits
// it is usually exact.  The Lemma 1 hierarchy T ⊆ LP(σ^π) ⊆ FS must
// hold both exactly and at the approximation level.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "core/classify.h"
#include "core/exact.h"
#include "core/heuristics.h"
#include "core/stabilize.h"
#include "gen/examples.h"
#include "gen/iscas_like.h"
#include "paths/counting.h"
#include "sat/cnf.h"

namespace rd {
namespace {

LogicalPathSet classifier_kept_set(const Circuit& circuit, Criterion criterion,
                                   const InputSort* sort = nullptr) {
  ClassifyOptions options;
  options.criterion = criterion;
  options.sort = sort;
  options.collect_paths_limit = 1u << 20;
  const ClassifyResult result = classify_paths(circuit, options);
  LogicalPathSet set;
  for (const auto& key : result.kept_keys) set.insert(key);
  EXPECT_EQ(set.size(), result.kept_paths);
  return set;
}

bool is_subset(const LogicalPathSet& inner, const LogicalPathSet& outer) {
  for (const auto& key : inner)
    if (!outer.count(key)) return false;
  return true;
}

std::vector<Circuit> test_circuits() {
  std::vector<Circuit> circuits;
  circuits.push_back(paper_example_circuit());
  circuits.push_back(c17());
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    IscasProfile profile;
    profile.name = "tiny" + std::to_string(seed);
    profile.num_inputs = 6;
    profile.num_outputs = 3;
    profile.num_gates = 22;
    profile.num_levels = 5;
    profile.xor_fraction = seed % 2 ? 0.2 : 0.0;
    profile.seed = seed;
    circuits.push_back(make_iscas_like(profile));
  }
  return circuits;
}

TEST(Classify, SupersetOfExactKeptPaths) {
  for (const Circuit& circuit : test_circuits()) {
    const InputSort natural = InputSort::natural(circuit);
    for (Criterion criterion :
         {Criterion::kFunctionalSensitizable, Criterion::kNonRobust,
          Criterion::kInputSort}) {
      const InputSort* sort =
          criterion == Criterion::kInputSort ? &natural : nullptr;
      const auto approx = classifier_kept_set(circuit, criterion, sort);
      const auto exact = exact_kept_paths(circuit, criterion, sort);
      EXPECT_TRUE(is_subset(exact, approx))
          << circuit.name() << " criterion "
          << static_cast<int>(criterion);
    }
  }
}

TEST(Classify, ExactOnPaperExample) {
  // On the paper's example the local-implication approximation is
  // exact for all three criteria.
  const Circuit circuit = paper_example_circuit();
  const InputSort natural = InputSort::natural(circuit);
  EXPECT_EQ(classifier_kept_set(circuit, Criterion::kFunctionalSensitizable),
            exact_kept_paths(circuit, Criterion::kFunctionalSensitizable));
  EXPECT_EQ(classifier_kept_set(circuit, Criterion::kNonRobust),
            exact_kept_paths(circuit, Criterion::kNonRobust));
  EXPECT_EQ(classifier_kept_set(circuit, Criterion::kInputSort, &natural),
            exact_kept_paths(circuit, Criterion::kInputSort, &natural));
}

TEST(Classify, PaperExampleSetSizes) {
  // FS(C) = all 8 logical paths (FUS share 0), T(C) = the 5 robustly
  // testable ones.
  const Circuit circuit = paper_example_circuit();
  EXPECT_EQ(
      classifier_kept_set(circuit, Criterion::kFunctionalSensitizable).size(),
      8u);
  EXPECT_EQ(classifier_kept_set(circuit, Criterion::kNonRobust).size(), 5u);
}

TEST(PathConditions, PaperExampleLiteralsArePinned) {
  // y = OR(a, h), h = OR(g1, c), g1 = AND(b, c) under the natural
  // sort: the PI's final value first, then each constrained side input
  // at its non-controlling value, lead by lead in pin order.  Columns
  // are FS, NR and π.
  const std::map<std::string, std::array<std::string, 3>> expected = {
      {"a (F) -> y -> y", {"a=0 h=0", "a=0 h=0", "a=0 h=0"}},
      {"a (R) -> y -> y", {"a=1", "a=1 h=0", "a=1"}},
      {"b (F) -> g1 -> h -> y -> y",
       {"b=0 c=0 a=0", "b=0 c=1 c=0 a=0", "b=0 c=0 a=0"}},
      {"b (R) -> g1 -> h -> y -> y",
       {"b=1 c=1", "b=1 c=1 c=0 a=0", "b=1 c=1 a=0"}},
      {"c (F) -> g1 -> h -> y -> y",
       {"c=0 c=0 a=0", "c=0 b=1 c=0 a=0", "c=0 b=1 c=0 a=0"}},
      {"c (R) -> g1 -> h -> y -> y",
       {"c=1 b=1", "c=1 b=1 c=0 a=0", "c=1 b=1 a=0"}},
      {"c (F) -> h -> y -> y", {"c=0 g1=0 a=0", "c=0 g1=0 a=0",
                                "c=0 g1=0 a=0"}},
      {"c (R) -> h -> y -> y", {"c=1", "c=1 g1=0 a=0", "c=1 g1=0 a=0"}},
  };
  const Circuit circuit = paper_example_circuit();
  const InputSort natural = InputSort::natural(circuit);
  std::size_t checked = 0;
  enumerate_paths(
      circuit,
      [&](const PhysicalPath& physical) {
        for (const bool final_value : {false, true}) {
          const LogicalPath path{physical, final_value};
          const auto row = expected.find(path_to_string(circuit, path));
          ASSERT_NE(row, expected.end()) << path_to_string(circuit, path);
          const Criterion criteria[] = {Criterion::kFunctionalSensitizable,
                                        Criterion::kNonRobust,
                                        Criterion::kInputSort};
          for (std::size_t i = 0; i < 3; ++i) {
            std::string literals;
            for_each_path_condition(
                circuit, path, criteria[i], &natural,
                [&](GateId gate, bool value) {
                  if (!literals.empty()) literals += ' ';
                  literals += circuit.gate(gate).name;
                  literals += value ? "=1" : "=0";
                  return true;
                });
            EXPECT_EQ(literals, row->second[i])
                << row->first << " criterion " << i;
          }
          EXPECT_THROW(for_each_path_condition(
                           circuit, path, Criterion::kInputSort, nullptr,
                           [](GateId, bool) { return true; }),
                       std::invalid_argument);
          ++checked;
        }
      },
      16);
  EXPECT_EQ(checked, expected.size());
}

TEST(Classify, Lemma1HierarchyExact) {
  for (const Circuit& circuit : test_circuits()) {
    const auto fs =
        exact_kept_paths(circuit, Criterion::kFunctionalSensitizable);
    const auto t = exact_kept_paths(circuit, Criterion::kNonRobust);
    const InputSort natural = InputSort::natural(circuit);
    const auto lp = logical_paths_of_sorted_assignment(circuit, natural);
    EXPECT_TRUE(is_subset(t, lp)) << circuit.name() << ": T ⊄ LP(σ^π)";
    EXPECT_TRUE(is_subset(lp, fs)) << circuit.name() << ": LP(σ^π) ⊄ FS";
  }
}

TEST(Classify, Lemma1HierarchyAtApproximationLevel) {
  for (const Circuit& circuit : test_circuits()) {
    const InputSort natural = InputSort::natural(circuit);
    const auto fs =
        classifier_kept_set(circuit, Criterion::kFunctionalSensitizable);
    const auto t = classifier_kept_set(circuit, Criterion::kNonRobust);
    const auto lp =
        classifier_kept_set(circuit, Criterion::kInputSort, &natural);
    EXPECT_TRUE(is_subset(t, lp)) << circuit.name();
    EXPECT_TRUE(is_subset(lp, fs)) << circuit.name();
  }
}

TEST(Classify, SortVariesKeptSetWithinBounds) {
  // Different input sorts give different LP(σ^π), all between T and FS.
  for (const Circuit& circuit : test_circuits()) {
    const InputSort natural = InputSort::natural(circuit);
    const InputSort reversed = natural.reversed();
    const auto fs =
        classifier_kept_set(circuit, Criterion::kFunctionalSensitizable);
    const auto t = classifier_kept_set(circuit, Criterion::kNonRobust);
    for (const InputSort* sort : {&natural, &reversed}) {
      const auto lp =
          classifier_kept_set(circuit, Criterion::kInputSort, sort);
      EXPECT_TRUE(is_subset(t, lp));
      EXPECT_TRUE(is_subset(lp, fs));
    }
  }
}

TEST(Classify, TotalsMatchStructuralCounts) {
  for (const Circuit& circuit : test_circuits()) {
    const PathCounts counts(circuit);
    ClassifyOptions options;
    options.criterion = Criterion::kFunctionalSensitizable;
    const ClassifyResult result = classify_paths(circuit, options);
    EXPECT_EQ(result.total_logical, counts.total_logical());
    EXPECT_EQ(result.rd_paths + BigUint(result.kept_paths),
              result.total_logical);
    EXPECT_GE(result.rd_percent, 0.0);
    EXPECT_LE(result.rd_percent, 100.0);
    EXPECT_TRUE(result.completed);
  }
}

TEST(Classify, PerLeadControllingCountsMatchEnumeration) {
  // The |FS_c^sup(l)| tallies must equal a direct recount over the
  // collected surviving paths.
  for (const Circuit& circuit : test_circuits()) {
    ClassifyOptions options;
    options.criterion = Criterion::kFunctionalSensitizable;
    options.collect_lead_counts = true;
    options.collect_paths_limit = 1u << 20;
    const ClassifyResult result = classify_paths(circuit, options);
    std::vector<std::uint64_t> recount(circuit.num_leads(), 0);
    for (const auto& key : result.kept_keys) {
      PhysicalPath path;
      path.leads.assign(key.begin(), key.end() - 1);
      const bool final_pi = key.back() != 0;
      for (std::size_t i = 0; i < path.leads.size(); ++i) {
        const Lead& lead = circuit.lead(path.leads[i]);
        const Gate& sink = circuit.gate(lead.sink);
        if (!has_controlling_value(sink.type)) continue;
        if (value_on_lead(circuit, path, i, final_pi) ==
            controlling_value(sink.type))
          ++recount[path.leads[i]];
      }
    }
    ASSERT_EQ(result.kept_controlling_per_lead.size(), circuit.num_leads());
    for (LeadId lead = 0; lead < circuit.num_leads(); ++lead)
      ASSERT_EQ(result.kept_controlling_per_lead[lead], recount[lead])
          << circuit.name() << " lead " << lead;
  }
}

TEST(Classify, WorkLimitAborts) {
  const Circuit circuit = c17();
  ClassifyOptions options;
  options.criterion = Criterion::kFunctionalSensitizable;
  options.work_limit = 3;
  const ClassifyResult result = classify_paths(circuit, options);
  EXPECT_FALSE(result.completed);
}

TEST(Classify, InputSortRequiresSort) {
  ClassifyOptions options;
  options.criterion = Criterion::kInputSort;
  EXPECT_THROW(classify_paths(c17(), options), std::invalid_argument);
}

TEST(Classify, RemarkTwo_SortKeepsNoMoreThanFs) {
  // Remark 2: dropping (π3) yields the FS conditions, so for any sort
  // the kept count is bounded by the FS kept count.
  for (const Circuit& circuit : test_circuits()) {
    ClassifyOptions options;
    options.criterion = Criterion::kFunctionalSensitizable;
    const auto fs = classify_paths(circuit, options);
    const InputSort natural = InputSort::natural(circuit);
    options.criterion = Criterion::kInputSort;
    options.sort = &natural;
    const auto lp = classify_paths(circuit, options);
    EXPECT_LE(lp.kept_paths, fs.kept_paths) << circuit.name();
  }
}

TEST(Classify, C17AllPathsSurviveFs) {
  // c17 is fully testable: every logical path is functionally
  // sensitizable, non-robustly testable, and kept by every sort.
  const Circuit circuit = c17();
  EXPECT_EQ(
      classifier_kept_set(circuit, Criterion::kFunctionalSensitizable).size(),
      22u);
  EXPECT_EQ(exact_kept_paths(circuit, Criterion::kNonRobust).size(), 22u);
}

// The one known approximation gap: on unsat_side_constraint_circuit
// local implications keep exactly one path more than the exhaustive FS
// sweep.  The SAT witness query sat_sensitizable separates the two:
// it finds no sensitizing vector for the extra path and one for every
// other kept path.
TEST(ApproximationGap, UnsatSideKeepsOneUnsensitizablePath) {
  const Circuit circuit = unsat_side_constraint_circuit();
  ClassifyOptions options;
  options.criterion = Criterion::kFunctionalSensitizable;
  options.collect_paths_limit = std::uint64_t{1} << 16;
  const ClassifyResult local = classify_paths(circuit, options);
  ASSERT_TRUE(local.completed);

  const LogicalPathSet kept(local.kept_keys.begin(), local.kept_keys.end());
  const LogicalPathSet exact =
      exact_kept_paths(circuit, Criterion::kFunctionalSensitizable);
  EXPECT_EQ(kept.size(), 8u);
  EXPECT_EQ(exact.size(), 7u);
  EXPECT_TRUE(std::includes(kept.begin(), kept.end(), exact.begin(),
                            exact.end()));

  const ClassifyResult reference = classify_paths_reference(circuit, options);
  EXPECT_EQ(reference.kept_keys, local.kept_keys);
  EXPECT_EQ(reference.work, local.work);
  EXPECT_EQ(reference.implication, local.implication);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    ClassifyOptions run = options;
    run.num_threads = threads;
    const ClassifyResult parallel = classify_paths(circuit, run);
    EXPECT_EQ(parallel.kept_paths, local.kept_paths) << threads;
    EXPECT_EQ(parallel.kept_keys, local.kept_keys) << threads;
    EXPECT_EQ(parallel.work, local.work) << threads;
    EXPECT_EQ(parallel.implication, local.implication) << threads;
  }

  SatSolver solver;
  const CircuitCnf cnf(circuit, solver);
  std::size_t gap = 0;
  for (const std::vector<std::uint32_t>& key : kept) {
    LogicalPath path;
    path.path.leads.assign(key.begin(), key.end() - 1);
    path.final_pi_value = key.back() != 0;
    const std::optional<bool> witness = sat_sensitizable(
        circuit, cnf, solver, path, Criterion::kFunctionalSensitizable);
    ASSERT_TRUE(witness.has_value());
    EXPECT_EQ(*witness, exact.count(key) == 1)
        << path_to_string(circuit, path);
    if (!*witness) ++gap;
  }
  EXPECT_EQ(gap, 1u);
}

// The subtree-replay cache (DESIGN.md §14): a Heuristic 1 run on the
// c432 stand-in revisits subtrees from equal engine states and replays
// them — with the same counters as the reference engine — while runs
// that record per-path side effects (keys, lead tallies) never touch a
// cache at all.
TEST(ReplayCache, HeuristicOneRunOnC432Replays) {
  const Circuit circuit = make_benchmark("c432");
  const InputSort sort = heuristic1_sort(circuit);
  ClassifyOptions options;
  options.criterion = Criterion::kInputSort;
  options.sort = &sort;
  const ClassifyResult replayed = classify_paths(circuit, options);
  ASSERT_TRUE(replayed.memo.has_value());
  EXPECT_GT(replayed.memo->hits, 0u);
  EXPECT_LE(replayed.memo->hits, replayed.memo->lookups);
  EXPECT_GT(replayed.memo->replayed_work, 0u);
  EXPECT_LT(replayed.memo->replayed_work, replayed.work);

  const ClassifyResult reference = classify_paths_reference(circuit, options);
  EXPECT_EQ(replayed.kept_paths, reference.kept_paths);
  EXPECT_EQ(replayed.work, reference.work);
  EXPECT_EQ(replayed.implication, reference.implication);
  EXPECT_FALSE(reference.memo.has_value());

  // One-thread counts are a function of the run: a rerun replays the
  // same.
  EXPECT_EQ(classify_paths(circuit, options).memo, replayed.memo);
  // Pool workers keep their own tables.
  options.num_threads = 2;
  const ClassifyResult parallel = classify_paths(circuit, options);
  ASSERT_TRUE(parallel.memo.has_value());
  EXPECT_EQ(parallel.work, reference.work);
  EXPECT_EQ(parallel.implication, reference.implication);
}

TEST(ReplayCache, RunsWithPerPathSideEffectsUseNoCache) {
  const Circuit circuit = make_benchmark("c432");
  const InputSort sort = heuristic1_sort(circuit);
  ClassifyOptions base;
  base.criterion = Criterion::kInputSort;
  base.sort = &sort;
  ClassifyOptions keys = base;
  keys.collect_paths_limit = 1;
  ClassifyOptions lead_counts = base;
  lead_counts.collect_lead_counts = true;
  for (const ClassifyOptions& options : {keys, lead_counts}) {
    for (const std::size_t threads : {1u, 2u}) {
      ClassifyOptions run = options;
      run.num_threads = threads;
      EXPECT_FALSE(classify_paths(circuit, run).memo.has_value())
          << "threads " << threads;
    }
  }
}

}  // namespace
}  // namespace rd
