// Tests for the test-generation layer: non-robust ATPG (cross-checked
// against the exact T(C) characterization), path delay fault
// simulation (cross-checked against the ATPG engines), test-set
// generation/compaction, and the stats reporter.
#include <gtest/gtest.h>

#include "atpg/nonrobust.h"
#include "atpg/path_fault_sim.h"
#include "atpg/robust.h"
#include "atpg/testset.h"
#include "core/exact.h"
#include "gen/examples.h"
#include "gen/iscas_like.h"
#include "io/stats.h"
#include "paths/counting.h"

namespace rd {
namespace {

std::vector<LogicalPath> all_logical_paths(const Circuit& circuit) {
  std::vector<LogicalPath> paths;
  enumerate_paths(
      circuit,
      [&](const PhysicalPath& physical) {
        paths.push_back(LogicalPath{physical, false});
        paths.push_back(LogicalPath{physical, true});
      },
      1u << 16);
  return paths;
}

std::vector<Circuit> small_circuits() {
  std::vector<Circuit> circuits;
  circuits.push_back(paper_example_circuit());
  circuits.push_back(c17());
  for (std::uint64_t seed = 71; seed <= 73; ++seed) {
    IscasProfile profile;
    profile.name = "tg" + std::to_string(seed);
    profile.num_inputs = 6;
    profile.num_outputs = 3;
    profile.num_gates = 20;
    profile.num_levels = 4;
    profile.xor_fraction = seed % 2 ? 0.2 : 0.0;
    profile.seed = seed;
    circuits.push_back(make_iscas_like(profile));
  }
  return circuits;
}

TEST(NonRobustAtpg, AgreesWithExactCharacterization) {
  for (const Circuit& circuit : small_circuits()) {
    for (const LogicalPath& path : all_logical_paths(circuit)) {
      const bool exact =
          exactly_sensitizable(circuit, path, Criterion::kNonRobust);
      const auto test = search_nonrobust_test(circuit, path).test;
      ASSERT_EQ(test.has_value(), exact)
          << circuit.name() << ": " << path_to_string(circuit, path);
      if (test.has_value()) {
        EXPECT_TRUE(nonrobust_test_is_valid(circuit, path, *test));
      }
    }
  }
}

TEST(NonRobustAtpg, DashedPathOfThePaperIsUntestable) {
  const Circuit circuit = paper_example_circuit();
  for (const LogicalPath& path : all_logical_paths(circuit)) {
    // The b-paths and the deep c-rising path are non-robust
    // untestable; everything else is testable.
    const std::string text = path_to_string(circuit, path);
    const bool through_b = text.find("b (") == 0;
    const bool deep_c_rising =
        text.find("c (R) -> g1") == 0;
    const bool expected_testable = !through_b && !deep_c_rising;
    EXPECT_EQ(search_nonrobust_test(circuit, path).test.has_value(),
              expected_testable)
        << text;
  }
}

TEST(PathFaultSim, RobustTestsClassifyAsRobust) {
  for (const Circuit& circuit : small_circuits()) {
    for (const LogicalPath& path : all_logical_paths(circuit)) {
      const auto test = search_robust_test(circuit, path).test;
      if (!test.has_value()) continue;
      const auto detection = simulate_path_test(circuit, {path}, *test);
      ASSERT_EQ(detection.size(), 1u);
      EXPECT_EQ(detection[0], DetectionClass::kRobust)
          << circuit.name() << ": " << path_to_string(circuit, path);
    }
  }
}

TEST(PathFaultSim, NonRobustTestsClassifyAtLeastNonRobust) {
  for (const Circuit& circuit : small_circuits()) {
    for (const LogicalPath& path : all_logical_paths(circuit)) {
      const auto test = search_nonrobust_test(circuit, path).test;
      if (!test.has_value()) continue;
      const auto waves = waves_of_vectors(circuit, test->v1, test->v2);
      const auto detection = simulate_path_test(circuit, {path}, waves);
      ASSERT_EQ(detection.size(), 1u);
      EXPECT_NE(detection[0], DetectionClass::kNone)
          << circuit.name() << ": " << path_to_string(circuit, path);
    }
  }
}

TEST(PathFaultSim, WrongPolarityIsNotDetected) {
  const Circuit circuit = c17();
  const auto paths = all_logical_paths(circuit);
  for (const LogicalPath& path : paths) {
    const auto test = search_robust_test(circuit, path).test;
    ASSERT_TRUE(test.has_value());
    // The same test cannot detect the opposite-transition fault of the
    // same physical path: its launch direction is wrong.
    LogicalPath opposite = path;
    opposite.final_pi_value = !opposite.final_pi_value;
    const auto detection = simulate_path_test(circuit, {opposite}, *test);
    EXPECT_EQ(detection[0], DetectionClass::kNone);
  }
}

TEST(PathFaultSim, SteadyInputsDetectNothing) {
  const Circuit circuit = paper_example_circuit();
  std::vector<Wave> steady(circuit.inputs().size(), Wave::steady(true));
  const auto detection =
      simulate_path_test(circuit, all_logical_paths(circuit), steady);
  for (const DetectionClass d : detection)
    EXPECT_EQ(d, DetectionClass::kNone);
}

TEST(TestSet, FullCoverageOnC17) {
  const Circuit circuit = c17();
  const auto paths = all_logical_paths(circuit);
  const GeneratedTestSet set = generate_test_set(circuit, paths);
  EXPECT_EQ(set.robust_count, paths.size());
  EXPECT_EQ(set.undetected_count, 0u);
  EXPECT_DOUBLE_EQ(set.robust_coverage_percent, 100.0);
  // Compaction: far fewer tests than paths (22 faults).
  EXPECT_LT(set.tests.size(), paths.size());
  // Bookkeeping is consistent.
  for (std::size_t i = 0; i < paths.size(); ++i) {
    ASSERT_GE(set.detected_by[i], 0);
    ASSERT_LT(set.detected_by[i], static_cast<int>(set.tests.size()));
    const auto replay = simulate_path_test(
        circuit, {paths[i]},
        set.tests[static_cast<std::size_t>(set.detected_by[i])]);
    EXPECT_EQ(replay[0], set.detection[i]);
  }
}

TEST(TestSet, PaperExampleSplitsByClass) {
  const Circuit circuit = paper_example_circuit();
  const auto paths = all_logical_paths(circuit);
  ASSERT_EQ(paths.size(), 8u);
  const GeneratedTestSet set = generate_test_set(circuit, paths);
  // 5 robustly testable; the other 3 are not even non-robustly
  // testable (shown in the paper's example discussion).
  EXPECT_EQ(set.robust_count, 5u);
  EXPECT_EQ(set.nonrobust_count, 0u);
  EXPECT_EQ(set.undetected_count, 3u);
}

TEST(TestSet, NonRobustFallbackOnlyAddsCoverage) {
  // Note: even with the fallback disabled, a *robust* test for one
  // path may detect other paths non-robustly — that incidental
  // coverage is kept.  The fallback pass can only reduce the
  // undetected count, never the robust one.
  for (const Circuit& circuit : small_circuits()) {
    const auto paths = all_logical_paths(circuit);
    TestSetOptions options;
    options.allow_nonrobust = false;
    const GeneratedTestSet robust_only =
        generate_test_set(circuit, paths, options);
    const GeneratedTestSet full = generate_test_set(circuit, paths);
    EXPECT_EQ(full.robust_count, robust_only.robust_count);
    EXPECT_LE(full.undetected_count, robust_only.undetected_count);
    EXPECT_GE(full.tests.size(), robust_only.tests.size());
  }
}

// ---- pinned search behaviour ---------------------------------------------
// Any change in a search's decision order, pruning or node accounting
// moves these numbers.

void expect_pinned_test_set(const Circuit& circuit, std::size_t tests,
                            std::uint64_t robust_nodes,
                            const std::vector<DetectionClass>& detection,
                            const std::vector<int>& detected_by) {
  const GeneratedTestSet set =
      generate_test_set(circuit, all_logical_paths(circuit));
  EXPECT_EQ(set.tests.size(), tests);
  EXPECT_EQ(set.robust_nodes, robust_nodes);
  EXPECT_EQ(set.nonrobust_nodes, 0u);
  EXPECT_EQ(set.detection, detection);
  EXPECT_EQ(set.detected_by, detected_by);
}

TEST(TestSet, C17GenerationIsPinned) {
  expect_pinned_test_set(
      c17(), 16, 82, std::vector<DetectionClass>(22, DetectionClass::kRobust),
      {0, 1, 2, 3, 2, 3, 4, 5, 6, 7, 6, 7, 8, 9, 10, 11, 10, 11, 12, 13, 14,
       15});
}

TEST(TestSet, PaperExampleGenerationIsPinned) {
  constexpr DetectionClass R = DetectionClass::kRobust;
  constexpr DetectionClass N = DetectionClass::kNone;
  expect_pinned_test_set(paper_example_circuit(), 4, 36,
                         {R, R, N, N, R, N, R, R},
                         {0, 1, -1, -1, 2, -1, 2, 3});
}

// The test sets above never reach the non-robust completion search, so
// each generator's per-path searches are pinned as well: testable
// targets and total nodes over every path (robust, non-robust).
TEST(AtpgSearch, NodeCountsArePinned) {
  struct Pin {
    Circuit circuit;
    std::size_t robust, nonrobust;
    std::uint64_t robust_nodes, nonrobust_nodes;
  };
  const Pin pins[] = {{c17(), 22, 22, 120, 70},
                      {paper_example_circuit(), 5, 5, 39, 8}};
  for (const Pin& pin : pins) {
    std::size_t robust = 0, nonrobust = 0;
    std::uint64_t robust_nodes = 0, nonrobust_nodes = 0;
    for (const LogicalPath& path : all_logical_paths(pin.circuit)) {
      const RobustSearch r = search_robust_test(pin.circuit, path);
      robust += r.verdict == AtpgVerdict::kTestable;
      robust_nodes += r.nodes;
      const NonRobustSearch n = search_nonrobust_test(pin.circuit, path);
      nonrobust += n.verdict == AtpgVerdict::kTestable;
      nonrobust_nodes += n.nodes;
    }
    const std::string& name = pin.circuit.name();
    EXPECT_EQ(robust, pin.robust) << name;
    EXPECT_EQ(nonrobust, pin.nonrobust) << name;
    EXPECT_EQ(robust_nodes, pin.robust_nodes) << name;
    EXPECT_EQ(nonrobust_nodes, pin.nonrobust_nodes) << name;
  }
}

// ---- typed abort outcomes -------------------------------------------------

TEST(RobustAtpg, SearchReportsTypedWorkBudgetAbort) {
  const Circuit circuit = c17();
  const auto paths = all_logical_paths(circuit);
  ASSERT_FALSE(paths.empty());
  const RobustSearch search =
      search_robust_test(circuit, paths.front(), /*max_nodes=*/0);
  EXPECT_EQ(search.verdict, AtpgVerdict::kAborted);
  EXPECT_EQ(search.abort_reason, AbortReason::kWorkBudget);
  EXPECT_FALSE(search.test.has_value());
}

TEST(RobustAtpg, SearchReportsGuardTripReason) {
  const Circuit circuit = c17();
  const auto paths = all_logical_paths(circuit);
  ExecGuard guard;
  guard.inject_trip_at(1, AbortReason::kMemory);
  const RobustSearch search = search_robust_test(
      circuit, paths.front(), std::uint64_t{1} << 26, &guard);
  EXPECT_EQ(search.verdict, AtpgVerdict::kAborted);
  EXPECT_EQ(search.abort_reason, AbortReason::kMemory);
}

TEST(NonRobustAtpg, SearchReportsTypedAbort) {
  const Circuit circuit = c17();
  const auto paths = all_logical_paths(circuit);
  const NonRobustSearch budget =
      search_nonrobust_test(circuit, paths.front(), /*max_nodes=*/0);
  EXPECT_EQ(budget.verdict, AtpgVerdict::kAborted);
  EXPECT_EQ(budget.abort_reason, AbortReason::kWorkBudget);

  ExecGuard guard;
  guard.inject_trip_at(1, AbortReason::kDeadline);
  const NonRobustSearch tripped = search_nonrobust_test(
      circuit, paths.front(), std::uint64_t{1} << 26, &guard);
  EXPECT_EQ(tripped.verdict, AtpgVerdict::kAborted);
  EXPECT_EQ(tripped.abort_reason, AbortReason::kDeadline);
}

TEST(TestSet, GuardTripStopsGenerationWithTypedReason) {
  const Circuit circuit = c17();
  const auto paths = all_logical_paths(circuit);
  ExecGuard guard;
  guard.inject_trip_at(1, AbortReason::kDeadline);
  TestSetOptions options;
  options.guard = &guard;
  const GeneratedTestSet set = generate_test_set(circuit, paths, options);
  EXPECT_FALSE(set.completed);
  EXPECT_EQ(set.abort_reason, AbortReason::kDeadline);
  // Partial counts stay consistent lower bounds.
  EXPECT_LE(set.robust_count + set.nonrobust_count + set.undetected_count,
            paths.size());
}

TEST(TestSet, UntrippedGuardLeavesResultComplete) {
  const Circuit circuit = c17();
  const auto paths = all_logical_paths(circuit);
  ExecGuard guard;  // no ceilings
  TestSetOptions options;
  options.guard = &guard;
  const GeneratedTestSet guarded = generate_test_set(circuit, paths, options);
  EXPECT_TRUE(guarded.completed);
  EXPECT_EQ(guarded.abort_reason, AbortReason::kNone);
  const GeneratedTestSet plain = generate_test_set(circuit, paths);
  EXPECT_EQ(guarded.robust_count, plain.robust_count);
  EXPECT_EQ(guarded.tests.size(), plain.tests.size());
}

TEST(TestSet, PerPathBudgetExhaustionDoesNotAbortTheRun) {
  // A per-path node-budget miss skips that path (counted in
  // *_budget_exceeded) but the generation itself completes.
  const Circuit circuit = paper_example_circuit();
  const auto paths = all_logical_paths(circuit);
  TestSetOptions options;
  options.max_robust_nodes = 0;
  options.max_nonrobust_nodes = 0;
  const GeneratedTestSet set = generate_test_set(circuit, paths, options);
  EXPECT_TRUE(set.completed);
  EXPECT_EQ(set.abort_reason, AbortReason::kNone);
  EXPECT_EQ(set.robust_count, 0u);
  EXPECT_GT(set.robust_budget_exceeded, 0u);
}

TEST(Stats, ReportsConsistentNumbers) {
  const Circuit circuit = c17();
  const CircuitStats stats = compute_stats(circuit);
  EXPECT_EQ(stats.num_inputs, 5u);
  EXPECT_EQ(stats.num_outputs, 2u);
  EXPECT_EQ(stats.num_logic_gates, 6u);
  EXPECT_EQ(stats.gates_by_type[static_cast<std::size_t>(GateType::kNand)],
            6u);
  EXPECT_EQ(stats.max_fanin, 2u);
  EXPECT_EQ(stats.physical_paths.to_u64(), 11u);
  EXPECT_EQ(stats.logical_paths.to_u64(), 22u);
  EXPECT_EQ(stats.depth, 4u);

  const std::string text = stats_to_string(stats);
  EXPECT_NE(text.find("NAND=6"), std::string::npos);
  EXPECT_NE(text.find("22 logical"), std::string::npos);
  EXPECT_NE(text.find("5 PIs"), std::string::npos);
}

TEST(Stats, MatchesPathCountsOnGenerated) {
  const Circuit circuit = make_benchmark("c880");
  const CircuitStats stats = compute_stats(circuit);
  const PathCounts counts(circuit);
  EXPECT_EQ(stats.logical_paths, counts.total_logical());
  EXPECT_GT(stats.avg_fanin, 1.0);
  EXPECT_GE(stats.max_fanout, 1u);
}

}  // namespace
}  // namespace rd
