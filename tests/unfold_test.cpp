// Tests for the leaf-dag baseline (approach of [1]): leaf-dag
// construction invariants, function preservation, constant
// propagation, and end-to-end RD identification cross-checked against
// the stabilizing-system theory on small circuits.
#include <gtest/gtest.h>

#include "core/exact.h"
#include "core/heuristics.h"
#include "gen/examples.h"
#include "gen/iscas_like.h"
#include "gen/pla_like.h"
#include "paths/counting.h"
#include "sim/logic_sim.h"
#include "synth/synth.h"
#include "unfold/leaf_dag.h"
#include "unfold/redundancy.h"
#include "util/rng.h"

namespace rd {
namespace {

/// Functional equivalence of a cone and its unfolding over random
/// patterns (leaf-dag PIs are a subset of the circuit PIs, matched by
/// name).
void expect_equivalent(const Circuit& circuit, GateId po, const Circuit& dag) {
  ASSERT_EQ(dag.outputs().size(), 1u);
  Rng rng(13);
  std::vector<std::uint64_t> circuit_words(circuit.inputs().size());
  for (auto& word : circuit_words) word = rng.next_u64();
  std::vector<std::uint64_t> dag_words(dag.inputs().size());
  for (std::size_t i = 0; i < dag.inputs().size(); ++i) {
    const std::string& name = dag.gate(dag.inputs()[i]).name;
    bool found = false;
    for (std::size_t j = 0; j < circuit.inputs().size(); ++j) {
      if (circuit.gate(circuit.inputs()[j]).name == name) {
        dag_words[i] = circuit_words[j];
        found = true;
        break;
      }
    }
    ASSERT_TRUE(found) << "leaf-dag PI " << name << " missing in circuit";
  }
  const auto circuit_values = simulate64(circuit, circuit_words);
  const auto dag_values = simulate64(dag, dag_words);
  EXPECT_EQ(circuit_values[po], dag_values[dag.outputs()[0]]);
}

TEST(LeafDag, FanoutOnlyAtPIs) {
  for (const char* which : {"example", "c17"}) {
    const Circuit circuit =
        which[0] == 'e' ? paper_example_circuit() : c17();
    for (GateId po : circuit.outputs()) {
      const LeafDag leaf = build_leaf_dag(circuit, po);
      ASSERT_TRUE(leaf.complete);
      for (GateId id = 0; id < leaf.dag.num_gates(); ++id) {
        const Gate& gate = leaf.dag.gate(id);
        if (gate.type == GateType::kInput) continue;
        EXPECT_LE(gate.fanout_leads.size(), 1u)
            << which << ": internal fanout at gate " << gate.name;
      }
    }
  }
}

TEST(LeafDag, PreservesFunction) {
  const Circuit c = c17();
  for (GateId po : c.outputs()) {
    const LeafDag leaf = build_leaf_dag(c, po);
    ASSERT_TRUE(leaf.complete);
    expect_equivalent(c, po, leaf.dag);
  }
}

TEST(LeafDag, PreservesPathCount) {
  // Unfolding preserves the number of cone paths exactly.
  const Circuit circuit = c17();
  const PathCounts counts(circuit);
  for (GateId po : circuit.outputs()) {
    const LeafDag leaf = build_leaf_dag(circuit, po);
    const PathCounts dag_counts(leaf.dag);
    EXPECT_EQ(dag_counts.total_physical(), counts.arrivals(po));
  }
}

TEST(LeafDag, SourceMappingIsConsistent) {
  const Circuit circuit = c17();
  const LeafDag leaf = build_leaf_dag(circuit, circuit.outputs()[0]);
  for (GateId id = 0; id < leaf.dag.num_gates(); ++id) {
    const GateId original = leaf.source_gate[id];
    ASSERT_NE(original, kNullGate);
    EXPECT_EQ(leaf.dag.gate(id).type, circuit.gate(original).type);
  }
  for (LeadId lead = 0; lead < leaf.dag.num_leads(); ++lead) {
    const LeadId original = leaf.source_lead[lead];
    ASSERT_NE(original, kNullLead);
    EXPECT_EQ(leaf.dag.lead(lead).pin, circuit.lead(original).pin);
  }
}

TEST(LeafDag, BudgetStopsExplosion) {
  const Circuit circuit = make_benchmark("c432");
  const LeafDag leaf = build_leaf_dag(circuit, circuit.outputs()[0],
                                      /*max_gates=*/16);
  EXPECT_FALSE(leaf.complete);
}

TEST(LeafDag, RejectsNonPo) {
  const Circuit circuit = c17();
  EXPECT_THROW(build_leaf_dag(circuit, circuit.inputs()[0]),
               std::invalid_argument);
}

TEST(PropagateConstant, PreservesFunctionForRedundantFault) {
  // Consensus circuit: forcing the redundant lead to its stuck value
  // must preserve the function.
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

  const LeadId lead = circuit.gate(org).fanin_leads[2];
  const SimplifyResult simplified = propagate_constant(circuit, lead, false);
  EXPECT_FALSE(simplified.collapsed);
  // t3 and its cone disappear.
  EXPECT_LT(simplified.circuit.num_gates(), circuit.num_gates());
  for (std::uint64_t minterm = 0; minterm < 8; ++minterm) {
    std::vector<bool> inputs(3);
    for (int i = 0; i < 3; ++i) inputs[i] = (minterm >> i) & 1;
    // Input arity may shrink if a PI dies; map by name.
    std::vector<bool> mapped(simplified.circuit.inputs().size());
    for (std::size_t i = 0; i < mapped.size(); ++i) {
      const std::string& name =
          simplified.circuit.gate(simplified.circuit.inputs()[i]).name;
      mapped[i] = inputs[name == "a" ? 0 : name == "b" ? 1 : 2];
    }
    const auto original = simulate(circuit, inputs);
    const auto reduced = simulate(simplified.circuit, mapped);
    EXPECT_EQ(original[circuit.outputs()[0]],
              reduced[simplified.circuit.outputs()[0]])
        << "minterm " << minterm;
  }
}

TEST(PropagateConstant, ControllingConstantCollapsesGate) {
  Circuit circuit;
  const GateId a = circuit.add_input("a");
  const GateId b = circuit.add_input("b");
  const GateId g = circuit.add_gate(GateType::kAnd, "g", {a, b});
  const GateId o = circuit.add_gate(GateType::kOr, "o", {g, a});
  circuit.add_output("y", o);
  circuit.finalize();
  // Force b -> g to 0: g becomes constant 0, OR drops the pin, the
  // circuit reduces to y = a (o becomes a buffer).
  const LeadId lead = circuit.gate(g).fanin_leads[1];
  const SimplifyResult simplified = propagate_constant(circuit, lead, false);
  EXPECT_FALSE(simplified.collapsed);
  EXPECT_EQ(simplified.circuit.inputs().size(), 1u);
  for (const bool value : {false, true}) {
    const auto reduced = simulate(simplified.circuit, {value});
    EXPECT_EQ(reduced[simplified.circuit.outputs()[0]], value);
  }
}

TEST(PropagateConstant, OutputCollapseReported) {
  Circuit circuit;
  const GateId a = circuit.add_input("a");
  const GateId b = circuit.add_input("b");
  const GateId g = circuit.add_gate(GateType::kOr, "g", {a, b});
  circuit.add_output("y", g);
  circuit.finalize();
  const LeadId lead = circuit.gate(g).fanin_leads[0];
  const SimplifyResult simplified = propagate_constant(circuit, lead, true);
  EXPECT_TRUE(simplified.collapsed);
  EXPECT_TRUE(simplified.circuit.outputs().empty());
}

TEST(UnfoldRd, FindsNoRedundancyInIrredundantCircuit) {
  // c17 is irredundant: the baseline keeps every path.
  const Circuit circuit = c17();
  const UnfoldResult result = identify_rd_unfold(circuit);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.redundancies_removed, 0u);
  EXPECT_EQ(result.must_test_logical, result.total_logical);
  EXPECT_EQ(result.rd_percent, 0.0);
}

TEST(UnfoldRd, RemovesTheConsensusTerm) {
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

  const UnfoldResult result = identify_rd_unfold(circuit);
  EXPECT_TRUE(result.complete);
  EXPECT_GE(result.redundancies_removed, 1u);
  // 6 physical = 12 logical paths.  Only the *rising* paths through
  // the consensus term bc are robust dependent: killing the falling
  // ones would leave the OR gate's settling to 0 unverified (output-0
  // stabilization needs every OR input settled).  The baseline must
  // find exactly the true optimum here.
  EXPECT_EQ(result.total_logical.to_u64(), 12u);
  EXPECT_EQ(result.must_test_logical.to_u64(), 10u);
  const auto optimum = exact_min_lp_sigma(circuit);
  ASSERT_TRUE(optimum.has_value());
  EXPECT_EQ(result.must_test_logical.to_u64(), *optimum);
}

TEST(UnfoldRd, PaperExampleFindsRdPaths) {
  // The baseline on the paper example: the b-paths are removable
  // (y = a + c functionally), leaving at most 6 of 8 logical paths.
  const Circuit circuit = paper_example_circuit();
  const UnfoldResult result = identify_rd_unfold(circuit);
  EXPECT_TRUE(result.complete);
  EXPECT_GE(result.redundancies_removed, 1u);
  EXPECT_EQ(result.total_logical.to_u64(), 8u);
  // The baseline reaches the optimum of Example 3: 5 must-test paths.
  EXPECT_EQ(result.must_test_logical.to_u64(), 5u);
  EXPECT_NEAR(result.rd_percent, 100.0 * 3.0 / 8.0, 1e-9);
}

TEST(UnfoldRd, NeverWorseThanKeepingEverything) {
  for (std::uint64_t seed = 31; seed <= 34; ++seed) {
    IscasProfile profile;
    profile.name = "t";
    profile.num_inputs = 6;
    profile.num_outputs = 2;
    profile.num_gates = 18;
    profile.num_levels = 4;
    profile.seed = seed;
    const Circuit circuit = make_iscas_like(profile);
    const UnfoldResult result = identify_rd_unfold(circuit);
    EXPECT_LE(result.must_test_logical, result.total_logical);
    EXPECT_GE(result.rd_percent, 0.0);
  }
}

TEST(UnfoldRd, MustTestCountBoundsTheOptimum) {
  // Theory check: the leaf-dag result can never keep fewer paths than
  // the true optimum over all complete stabilizing assignments.
  const Circuit circuit = paper_example_circuit();
  const UnfoldResult result = identify_rd_unfold(circuit);
  const auto optimum = exact_min_lp_sigma(circuit);
  ASSERT_TRUE(optimum.has_value());
  EXPECT_GE(result.must_test_logical.to_u64(), *optimum);
}

TEST(UnfoldRd, GuardTripEndsInTypedAbort) {
  PlaProfile profile;
  profile.name = "mini";
  profile.num_inputs = 8;
  profile.num_outputs = 5;
  profile.num_cubes = 26;
  profile.min_literals = 2;
  profile.max_literals = 5;
  profile.output_density = 0.25;
  profile.seed = 77;
  const Circuit circuit = synthesize_multilevel(make_pla_like(profile));
  const UnfoldResult full = identify_rd_unfold(circuit);
  ASSERT_TRUE(full.complete);
  EXPECT_EQ(full.abort_reason, AbortReason::kNone);

  // An untripped guard changes nothing; it counts the run's checks.
  ExecGuard counter;
  const UnfoldResult counted = identify_rd_unfold(circuit, &counter);
  EXPECT_TRUE(counted.complete);
  EXPECT_EQ(counted.must_test_logical, full.must_test_logical);
  EXPECT_EQ(counted.redundancy_checks, full.redundancy_checks);
  const std::uint64_t checks = counter.checks();
  ASSERT_GE(checks, 4u);

  for (const auto& [nth, cause] :
       {std::pair{std::uint64_t{1}, AbortReason::kDeadline},
        std::pair{checks / 2, AbortReason::kCancelled}}) {
    ExecGuard guard;
    guard.inject_at_check(nth, [&guard, cause = cause] { guard.trip(cause); });
    const UnfoldResult partial = identify_rd_unfold(circuit, &guard);
    EXPECT_FALSE(partial.complete) << nth;
    EXPECT_EQ(partial.abort_reason, cause) << nth;
    EXPECT_EQ(partial.total_logical, full.total_logical);
    // The kills found before the trip are still a sound RD-set.
    EXPECT_GE(partial.must_test_logical, full.must_test_logical) << nth;
    EXPECT_LE(partial.must_test_logical, partial.total_logical) << nth;
    EXPECT_LT(partial.redundancy_checks, full.redundancy_checks) << nth;
  }
}

}  // namespace
}  // namespace rd
