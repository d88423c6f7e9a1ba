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
#include <set>

#include "core/classify.h"
#include "core/exact.h"
#include "core/heuristics.h"
#include "core/stabilize.h"
#include "gen/examples.h"
#include "gen/iscas_like.h"
#include "paths/counting.h"

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

// The learned implication tier: failed-literal probing drops a
// survivor whose side-input constraints are unsatisfiable, but which
// local implications alone keep.
TEST(LearnedTier, DropsProvablyUnsatisfiableSurvivor) {
  const Circuit circuit = unsat_side_constraint_circuit();
  ClassifyOptions base;
  base.criterion = Criterion::kFunctionalSensitizable;
  base.collect_paths_limit = std::uint64_t{1} << 16;

  const ClassifyResult off = classify_paths(circuit, base);
  EXPECT_FALSE(off.learned.has_value());
  ClassifyOptions learned_options = base;
  learned_options.implications = ImplicationTier::kLearned;
  const ClassifyResult learned = classify_paths(circuit, learned_options);

  ASSERT_TRUE(learned.learned.has_value());
  EXPECT_GE(learned.learned->dropped, 1u);
  EXPECT_EQ(learned.kept_paths + learned.learned->dropped, off.kept_paths);

  // Set containment against the exhaustive reference: everything the
  // probe dropped is also outside the exact FS set, and everything
  // exact keeps survives probing.
  const LogicalPathSet exact =
      exact_kept_paths(circuit, Criterion::kFunctionalSensitizable);
  const LogicalPathSet off_set(off.kept_keys.begin(), off.kept_keys.end());
  const LogicalPathSet learned_set(learned.kept_keys.begin(),
                                   learned.kept_keys.end());
  EXPECT_LT(exact.size(), off_set.size());  // FS^sup genuinely over-keeps
  EXPECT_TRUE(std::includes(learned_set.begin(), learned_set.end(),
                            exact.begin(), exact.end()));
  EXPECT_TRUE(std::includes(off_set.begin(), off_set.end(),
                            learned_set.begin(), learned_set.end()));

  // Deterministic at every thread count.
  for (const std::size_t threads : {2u, 4u}) {
    ClassifyOptions parallel_options = learned_options;
    parallel_options.num_threads = threads;
    const ClassifyResult parallel = classify_paths(circuit, parallel_options);
    EXPECT_EQ(parallel.kept_paths, learned.kept_paths) << threads;
    EXPECT_EQ(parallel.kept_keys, learned.kept_keys) << threads;
    EXPECT_EQ(parallel.learned, learned.learned) << threads;
  }
}

}  // namespace
}  // namespace rd
