// Edge-case sweep: degenerate circuits and API corners that the
// mainline tests do not reach.
#include <gtest/gtest.h>

#include "atpg/robust.h"
#include "core/heuristics.h"
#include "paths/counting.h"
#include "sat/solver.h"
#include "sim/timed_sim.h"
#include "sim/two_pattern.h"
#include "util/rng.h"

namespace rd {
namespace {

Circuit wire_circuit() {
  // A PO driven directly by a PI: the single physical path is one lead.
  Circuit circuit("wire");
  const GateId a = circuit.add_input("a");
  circuit.add_output("y", a);
  circuit.finalize();
  return circuit;
}

TEST(Edge, WireCircuitPaths) {
  const Circuit circuit = wire_circuit();
  const PathCounts counts(circuit);
  EXPECT_EQ(counts.total_physical().to_u64(), 1u);
  EXPECT_EQ(counts.total_logical().to_u64(), 2u);
  std::vector<PhysicalPath> paths;
  enumerate_paths(
      circuit, [&](const PhysicalPath& path) { paths.push_back(path); }, 8);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].leads.size(), 1u);
  EXPECT_TRUE(is_valid_path(circuit, paths[0]));
}

TEST(Edge, WireCircuitClassifiesAndTests) {
  const Circuit circuit = wire_circuit();
  Rng rng(1);
  const auto result = identify_rd_heuristic2(circuit, {}, &rng);
  EXPECT_EQ(result.classify.kept_paths, 2u);  // nothing is RD
  EXPECT_EQ(result.classify.rd_paths.to_u64(), 0u);
  // Both transitions of a bare wire are robustly testable.
  std::vector<PhysicalPath> paths;
  enumerate_paths(
      circuit, [&](const PhysicalPath& path) { paths.push_back(path); }, 8);
  for (const bool final_value : {false, true})
    EXPECT_EQ(
        search_robust_test(circuit, LogicalPath{paths[0], final_value}).verdict,
        AtpgVerdict::kTestable);
}

TEST(Edge, DanglingInputContributesNoPaths) {
  Circuit circuit("dangling");
  const GateId a = circuit.add_input("a");
  circuit.add_input("unused");
  const GateId n = circuit.add_gate(GateType::kNot, "n", {a});
  circuit.add_output("y", n);
  circuit.finalize();
  const PathCounts counts(circuit);
  EXPECT_EQ(counts.total_physical().to_u64(), 1u);
  Rng rng(2);
  const auto result = identify_rd_heuristic1(circuit, {}, &rng);
  EXPECT_TRUE(result.classify.completed);
  EXPECT_EQ(result.classify.kept_paths, 2u);
}

TEST(Edge, RefineSortWithoutSwappableGates) {
  // An inverter chain has no multi-input gate: refinement is a no-op.
  Circuit circuit("chain");
  GateId prev = circuit.add_input("a");
  for (int i = 0; i < 4; ++i)
    prev = circuit.add_gate(GateType::kNot, "n" + std::to_string(i), {prev});
  circuit.add_output("y", prev);
  circuit.finalize();
  Rng rng(3);
  const auto refined =
      refine_sort(circuit, InputSort::natural(circuit), 10, rng);
  EXPECT_EQ(refined.classify.kept_paths, 2u);
}

TEST(Edge, SatSolverIsIncremental) {
  // Clauses added between solve calls constrain later calls.
  SatSolver solver;
  const SatVar x = solver.new_var();
  const SatVar y = solver.new_var();
  solver.add_clause({mk_lit(x), mk_lit(y)});
  ASSERT_EQ(solver.solve(), SatResult::kSat);
  solver.add_clause({mk_lit(x, true)});
  ASSERT_EQ(solver.solve(), SatResult::kSat);
  EXPECT_TRUE(solver.model_value(y));
  solver.add_clause({mk_lit(y, true)});
  EXPECT_EQ(solver.solve(), SatResult::kUnsat);
  // Once unsat, it stays unsat.
  EXPECT_EQ(solver.solve(), SatResult::kUnsat);
  EXPECT_FALSE(solver.add_clause({mk_lit(x)}));
}

TEST(Edge, SatConflictBudgetReturnsUnknown) {
  // A hard pigeonhole instance with a 1-conflict budget.
  SatSolver solver;
  std::vector<std::vector<SatVar>> in(5, std::vector<SatVar>(4));
  for (auto& row : in)
    for (auto& var : row) var = solver.new_var();
  for (int p = 0; p < 5; ++p) {
    std::vector<SatLit> clause;
    for (int h = 0; h < 4; ++h) clause.push_back(mk_lit(in[p][h]));
    solver.add_clause(std::move(clause));
  }
  for (int h = 0; h < 4; ++h)
    for (int p1 = 0; p1 < 5; ++p1)
      for (int p2 = p1 + 1; p2 < 5; ++p2)
        solver.add_clause({mk_lit(in[p1][h], true), mk_lit(in[p2][h], true)});
  EXPECT_EQ(solver.solve({}, /*max_conflicts=*/1), SatResult::kUnknown);
  // And solvable to completion afterwards.
  EXPECT_EQ(solver.solve(), SatResult::kUnsat);
}

TEST(Edge, PoHistoryIsTimeOrdered) {
  Circuit circuit("hist");
  const GateId a = circuit.add_input("a");
  GateId prev = a;
  for (int i = 0; i < 3; ++i)
    prev = circuit.add_gate(GateType::kNot, "n" + std::to_string(i), {prev});
  circuit.add_output("y", prev);
  circuit.finalize();
  DelayModel delays = DelayModel::zero(circuit);
  for (auto& d : delays.gate_delay) d = 1.0;
  delays.gate_delay[a] = 0.0;
  // Inconsistent initial state provokes multiple PO events.
  std::vector<bool> initial(circuit.num_gates());
  initial[circuit.outputs()[0]] = true;
  const auto result =
      simulate_timed(circuit, delays, initial, {true},
                     /*record_po_history=*/true);
  ASSERT_EQ(result.po_history.size(), 1u);
  const auto& history = result.po_history[0];
  for (std::size_t i = 1; i < history.size(); ++i)
    EXPECT_LE(history[i - 1].first, history[i].first);
  if (!history.empty()) {
    EXPECT_EQ(history.back().second,
              result.final_values[circuit.outputs()[0]]);
  }
}

TEST(Edge, InjectZeroDelayIsIdentity) {
  const Circuit circuit = wire_circuit();
  const DelayModel base = DelayModel::zero(circuit);
  std::vector<PhysicalPath> paths;
  enumerate_paths(
      circuit, [&](const PhysicalPath& path) { paths.push_back(path); }, 4);
  const DelayModel same = inject_path_delay(circuit, base, paths[0], 0.0);
  EXPECT_EQ(same.lead_delay, base.lead_delay);
  EXPECT_EQ(same.gate_delay, base.gate_delay);
}

}  // namespace
}  // namespace rd
