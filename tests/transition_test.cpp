// Tests for the transition (gate delay) fault model: ATPG validated by
// simulation and against an exhaustive testability oracle, and the
// crossover metric — transition coverage of generated *path* delay
// test sets.
#include <gtest/gtest.h>

#include "atpg/stuck_at.h"
#include "atpg/testset.h"
#include "atpg/transition.h"
#include "gen/examples.h"
#include "gen/iscas_like.h"
#include "paths/counting.h"
#include "sim/logic_sim.h"

namespace rd {
namespace {

/// Exhaustive oracle: testable iff some v2 detects the matching
/// stuck-at fault AND some v1 sets the site to the initial value.
bool exhaustively_testable(const Circuit& circuit,
                           const TransitionFault& fault) {
  const std::size_t n = circuit.inputs().size();
  const bool initial = fault.slow_to_rise ? false : true;
  bool launchable = false;
  bool detectable = false;
  for (std::uint64_t minterm = 0; minterm < (std::uint64_t{1} << n);
       ++minterm) {
    std::vector<bool> inputs(n);
    std::vector<Value3> values(n);
    for (std::size_t i = 0; i < n; ++i) {
      inputs[i] = (minterm >> i) & 1;
      values[i] = to_value3(inputs[i]);
    }
    if (simulate(circuit, inputs)[fault.gate] == initial) launchable = true;
    if (detects_fault(circuit, StuckFault::on_output(fault.gate, initial),
                      values))
      detectable = true;
    if (launchable && detectable) return true;
  }
  return false;
}

TEST(Transition, FaultListCoversEveryLogicNode) {
  const Circuit circuit = c17();
  const auto faults = all_transition_faults(circuit);
  // 5 PIs + 6 gates, both polarities.
  EXPECT_EQ(faults.size(), 22u);
}

TEST(Transition, AtpgAgreesWithExhaustiveOracle) {
  std::vector<Circuit> circuits;
  circuits.push_back(paper_example_circuit());
  circuits.push_back(c17());
  for (std::uint64_t seed = 61; seed <= 63; ++seed) {
    IscasProfile profile;
    profile.name = "tf";
    profile.num_inputs = 6;
    profile.num_outputs = 3;
    profile.num_gates = 20;
    profile.num_levels = 4;
    profile.xor_fraction = seed % 2 ? 0.2 : 0.0;
    profile.seed = seed;
    circuits.push_back(make_iscas_like(profile));
  }
  for (const Circuit& circuit : circuits) {
    for (const TransitionFault& fault : all_transition_faults(circuit)) {
      const auto test = search_transition_test(circuit, fault).test;
      ASSERT_EQ(test.has_value(), exhaustively_testable(circuit, fault))
          << circuit.name() << " gate " << fault.gate
          << (fault.slow_to_rise ? " STR" : " STF");
      if (test.has_value()) {
        EXPECT_TRUE(transition_test_is_valid(circuit, fault, *test));
      }
    }
  }
}

TEST(Transition, RedundantNodeIsUntestable) {
  // The consensus term's rising transition cannot be observed.
  Circuit circuit;
  const GateId a = circuit.add_input("a");
  const GateId b = circuit.add_input("b");
  const GateId c = circuit.add_input("c");
  const GateId na = circuit.add_gate(GateType::kNot, "na", {a});
  const GateId t1 = circuit.add_gate(GateType::kAnd, "t1", {a, b});
  const GateId t2 = circuit.add_gate(GateType::kAnd, "t2", {na, c});
  const GateId t3 = circuit.add_gate(GateType::kAnd, "t3", {b, c});
  const GateId org = circuit.add_gate(GateType::kOr, "or", {t1, t2, t3});
  circuit.add_output("y", org);
  circuit.finalize();
  EXPECT_EQ(search_transition_test(circuit, TransitionFault{t3, true}).verdict,
            AtpgVerdict::kRedundant);
  EXPECT_EQ(search_transition_test(circuit, TransitionFault{t1, true}).verdict,
            AtpgVerdict::kTestable);
}

TEST(Transition, PathTestSetCoversTransitionFaults) {
  // The crossover experiment: a complete path delay test set detects
  // (nearly) all transition faults — every gate lies on some tested
  // path.
  const Circuit circuit = c17();
  std::vector<LogicalPath> paths;
  enumerate_paths(
      circuit,
      [&](const PhysicalPath& physical) {
        paths.push_back(LogicalPath{physical, false});
        paths.push_back(LogicalPath{physical, true});
      },
      1u << 12);
  const GeneratedTestSet set = generate_test_set(circuit, paths);
  ASSERT_EQ(set.undetected_count, 0u);
  const double coverage = transition_coverage(circuit, set.tests);
  EXPECT_DOUBLE_EQ(coverage, 100.0);
}

TEST(Transition, SearchReportsTypedAbort) {
  const Circuit circuit = c17();
  const TransitionFault fault{circuit.inputs().front(), true};
  const TransitionSearch budget =
      search_transition_test(circuit, fault, /*max_nodes=*/0);
  EXPECT_EQ(budget.verdict, AtpgVerdict::kAborted);
  EXPECT_EQ(budget.abort_reason, AbortReason::kWorkBudget);

  ExecGuard guard;
  guard.inject_trip_at(1, AbortReason::kCancelled);
  const TransitionSearch tripped = search_transition_test(
      circuit, fault, std::uint64_t{1} << 22, &guard);
  EXPECT_EQ(tripped.verdict, AtpgVerdict::kAborted);
  EXPECT_EQ(tripped.abort_reason, AbortReason::kCancelled);
}

TEST(Transition, EmptyTestSetCoversNothing) {
  const Circuit circuit = c17();
  EXPECT_DOUBLE_EQ(transition_coverage(circuit, {}), 0.0);
}

TEST(Transition, CoverageIsMonotoneInTests) {
  const Circuit circuit = paper_example_circuit();
  std::vector<LogicalPath> paths;
  enumerate_paths(
      circuit,
      [&](const PhysicalPath& physical) {
        paths.push_back(LogicalPath{physical, false});
        paths.push_back(LogicalPath{physical, true});
      },
      1u << 8);
  const GeneratedTestSet set = generate_test_set(circuit, paths);
  ASSERT_GE(set.tests.size(), 2u);
  std::vector<std::vector<Wave>> one(set.tests.begin(),
                                     set.tests.begin() + 1);
  EXPECT_LE(transition_coverage(circuit, one),
            transition_coverage(circuit, set.tests));
}

}  // namespace
}  // namespace rd
