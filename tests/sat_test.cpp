// Tests for the CDCL SAT solver and the circuit CNF layer: hand CNFs
// (including unsatisfiable pigeonhole instances that force clause
// learning), random-CNF differential testing against brute force,
// Tseitin encodings against the simulator, assumption semantics,
// SAT-exact sensitizability vs the exhaustive and BDD engines, and
// miter equivalence.
#include <gtest/gtest.h>

#include "bdd/bdd_circuit.h"
#include "core/exact.h"
#include "core/resilient.h"
#include "gen/examples.h"
#include "gen/iscas_like.h"
#include "gen/pla_like.h"
#include "paths/counting.h"
#include "sat/cnf.h"
#include "sat/solver.h"
#include "sim/logic_sim.h"
#include "synth/synth.h"
#include "util/rng.h"

namespace rd {
namespace {

TEST(Sat, TrivialInstances) {
  {
    SatSolver solver;
    const SatVar x = solver.new_var();
    EXPECT_TRUE(solver.add_clause({mk_lit(x)}));
    EXPECT_EQ(solver.solve(), SatResult::kSat);
    EXPECT_TRUE(solver.model_value(x));
  }
  {
    SatSolver solver;
    const SatVar x = solver.new_var();
    EXPECT_TRUE(solver.add_clause({mk_lit(x)}));
    EXPECT_FALSE(solver.add_clause({mk_lit(x, true)}));
    EXPECT_EQ(solver.solve(), SatResult::kUnsat);
  }
  {
    SatSolver solver;
    EXPECT_FALSE(solver.add_clause({}));  // empty clause
    EXPECT_EQ(solver.solve(), SatResult::kUnsat);
  }
}

TEST(Sat, TautologyAndDuplicatesHandled) {
  SatSolver solver;
  const SatVar x = solver.new_var();
  const SatVar y = solver.new_var();
  EXPECT_TRUE(solver.add_clause({mk_lit(x), mk_lit(x, true)}));  // tautology
  EXPECT_TRUE(solver.add_clause({mk_lit(y), mk_lit(y), mk_lit(x)}));
  EXPECT_EQ(solver.solve(), SatResult::kSat);
}

/// Adds PHP(holes + 1, holes): holes + 1 pigeons in `holes` holes —
/// UNSAT, and refuting it requires learning.
void add_pigeonhole(SatSolver& solver, int holes) {
  const int pigeons = holes + 1;
  std::vector<std::vector<SatVar>> in(pigeons, std::vector<SatVar>(holes));
  for (auto& row : in)
    for (auto& var : row) var = solver.new_var();
  // Every pigeon somewhere.
  for (int p = 0; p < pigeons; ++p) {
    std::vector<SatLit> clause;
    for (int h = 0; h < holes; ++h) clause.push_back(mk_lit(in[p][h]));
    solver.add_clause(std::move(clause));
  }
  // No two pigeons share a hole.
  for (int h = 0; h < holes; ++h)
    for (int p1 = 0; p1 < pigeons; ++p1)
      for (int p2 = p1 + 1; p2 < pigeons; ++p2)
        solver.add_clause({mk_lit(in[p1][h], true), mk_lit(in[p2][h], true)});
}

TEST(Sat, PigeonholePrinciple) {
  for (int holes = 2; holes <= 4; ++holes) {
    SatSolver solver;
    add_pigeonhole(solver, holes);
    EXPECT_EQ(solver.solve(), SatResult::kUnsat) << holes << " holes";
    EXPECT_GT(solver.conflicts(), 0u);
  }
}

TEST(Sat, LearntClauseChargeIsReleased) {
  // Learnt clauses charge the attached guard, and the charge goes back
  // when the guard is detached or the solver is destroyed, so a guard
  // shared by several solvers does not count freed clauses.
  ExecGuard guard;
  guard.add_memory(1000);  // a charge the solvers do not own
  {
    SatSolver solver;
    solver.set_guard(&guard);
    add_pigeonhole(solver, 4);
    EXPECT_EQ(solver.solve(), SatResult::kUnsat);
    EXPECT_GT(guard.memory_used(), 1000u);
    solver.set_guard(nullptr);
    EXPECT_EQ(guard.memory_used(), 1000u);
  }
  {
    SatSolver solver;
    solver.set_guard(&guard);
    add_pigeonhole(solver, 4);
    EXPECT_EQ(solver.solve(), SatResult::kUnsat);
    EXPECT_GT(guard.memory_used(), 1000u);
  }
  EXPECT_EQ(guard.memory_used(), 1000u);
}

TEST(Sat, RandomCnfMatchesBruteForce) {
  Rng rng(77);
  for (int instance = 0; instance < 60; ++instance) {
    const int num_vars = 6 + static_cast<int>(rng.next_below(4));
    const int num_clauses = 10 + static_cast<int>(rng.next_below(30));
    std::vector<std::vector<SatLit>> clauses;
    for (int c = 0; c < num_clauses; ++c) {
      std::vector<SatLit> clause;
      const int width = 1 + static_cast<int>(rng.next_below(3));
      for (int l = 0; l < width; ++l)
        clause.push_back(
            mk_lit(static_cast<SatVar>(rng.next_below(num_vars)),
                   rng.next_bool(0.5)));
      clauses.push_back(std::move(clause));
    }
    // Brute force.
    bool expect_sat = false;
    for (std::uint32_t assignment = 0;
         assignment < (1u << num_vars) && !expect_sat; ++assignment) {
      bool all = true;
      for (const auto& clause : clauses) {
        bool any = false;
        for (const SatLit lit : clause) {
          const bool val = ((assignment >> lit_var(lit)) & 1) != 0;
          if (val != lit_negative(lit)) any = true;
        }
        if (!any) {
          all = false;
          break;
        }
      }
      expect_sat = all;
    }
    // Solver.
    SatSolver solver;
    for (int v = 0; v < num_vars; ++v) solver.new_var();
    for (auto& clause : clauses) solver.add_clause(std::move(clause));
    const SatResult result = solver.solve();
    ASSERT_EQ(result == SatResult::kSat, expect_sat) << "instance " << instance;
    if (result == SatResult::kSat) {
      // Verify the model against the original clauses is impossible
      // (clauses moved); rebuild and check via a fresh pass below
      // instead: re-create and evaluate.
    }
  }
}

TEST(Sat, ModelsSatisfyTheFormula) {
  Rng rng(99);
  for (int instance = 0; instance < 30; ++instance) {
    const int num_vars = 8;
    std::vector<std::vector<SatLit>> clauses;
    for (int c = 0; c < 20; ++c) {
      std::vector<SatLit> clause;
      for (int l = 0; l < 3; ++l)
        clause.push_back(mk_lit(static_cast<SatVar>(rng.next_below(num_vars)),
                                rng.next_bool(0.5)));
      clauses.push_back(std::move(clause));
    }
    SatSolver solver;
    for (int v = 0; v < num_vars; ++v) solver.new_var();
    for (const auto& clause : clauses) solver.add_clause(clause);
    if (solver.solve() != SatResult::kSat) continue;
    for (const auto& clause : clauses) {
      bool satisfied = false;
      for (const SatLit lit : clause)
        if (solver.model_value(lit_var(lit)) != lit_negative(lit))
          satisfied = true;
      ASSERT_TRUE(satisfied);
    }
  }
}

TEST(Sat, AssumptionsAreTemporary) {
  SatSolver solver;
  const SatVar x = solver.new_var();
  const SatVar y = solver.new_var();
  solver.add_clause({mk_lit(x), mk_lit(y)});
  // Under (~x, ~y): unsat; without assumptions: sat again.
  EXPECT_EQ(solver.solve({mk_lit(x, true), mk_lit(y, true)}),
            SatResult::kUnsat);
  EXPECT_EQ(solver.solve(), SatResult::kSat);
  EXPECT_EQ(solver.solve({mk_lit(x, true)}), SatResult::kSat);
  EXPECT_TRUE(solver.model_value(y));
  // Contradicting assumptions.
  EXPECT_EQ(solver.solve({mk_lit(x), mk_lit(x, true)}), SatResult::kUnsat);
}

TEST(CircuitCnf, ModelsMatchSimulation) {
  for (std::uint64_t seed = 5; seed <= 7; ++seed) {
    IscasProfile profile;
    profile.name = "cnf";
    profile.num_inputs = 6;
    profile.num_outputs = 3;
    profile.num_gates = 24;
    profile.num_levels = 5;
    profile.xor_fraction = 0.2;
    profile.seed = seed;
    const Circuit circuit = make_iscas_like(profile);
    SatSolver solver;
    const CircuitCnf cnf(circuit, solver);
    Rng rng(seed);
    for (int trial = 0; trial < 20; ++trial) {
      // Force a random PI assignment via assumptions; the unique model
      // must match the simulator on every gate.
      std::vector<bool> inputs(circuit.inputs().size());
      std::vector<SatLit> assumptions;
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        inputs[i] = rng.next_bool(0.5);
        assumptions.push_back(cnf.gate_lit(circuit.inputs()[i], inputs[i]));
      }
      ASSERT_EQ(solver.solve(assumptions), SatResult::kSat);
      const auto values = simulate(circuit, inputs);
      for (GateId id = 0; id < circuit.num_gates(); ++id)
        ASSERT_EQ(solver.model_value(cnf.gate_var(id)), values[id])
            << "gate " << id;
    }
  }
}

TEST(SatSensitizable, AgreesWithExhaustiveAndBdd) {
  std::vector<Circuit> circuits;
  circuits.push_back(paper_example_circuit());
  circuits.push_back(c17());
  for (std::uint64_t seed = 15; seed <= 17; ++seed) {
    IscasProfile profile;
    profile.name = "ss";
    profile.num_inputs = 6;
    profile.num_outputs = 3;
    profile.num_gates = 20;
    profile.num_levels = 4;
    profile.seed = seed;
    circuits.push_back(make_iscas_like(profile));
  }
  for (const Circuit& circuit : circuits) {
    SatSolver solver;
    const CircuitCnf cnf(circuit, solver);
    const InputSort sort = InputSort::natural(circuit);
    std::vector<LogicalPath> paths;
    enumerate_paths(
        circuit,
        [&](const PhysicalPath& physical) {
          paths.push_back(LogicalPath{physical, false});
          paths.push_back(LogicalPath{physical, true});
        },
        1u << 14);
    for (const LogicalPath& path : paths) {
      for (Criterion criterion :
           {Criterion::kFunctionalSensitizable, Criterion::kNonRobust,
            Criterion::kInputSort}) {
        const InputSort* sort_ptr =
            criterion == Criterion::kInputSort ? &sort : nullptr;
        const auto via_sat =
            sat_sensitizable(circuit, cnf, solver, path, criterion, sort_ptr);
        ASSERT_TRUE(via_sat.has_value());
        ASSERT_EQ(*via_sat,
                  exactly_sensitizable(circuit, path, criterion, sort_ptr))
            << circuit.name() << " " << path_to_string(circuit, path);
      }
    }
  }
}

TEST(SatSensitizable, ExactCountMatchesBddOnMidSize) {
  // The resilient ladder refines every FS kept path by SAT on its PO
  // cone.
  const Circuit circuit = make_benchmark("c880");
  const ResilientClassifyResult via_sat = classify_resilient(circuit, {});
  const auto via_bdd =
      bdd_exact_kept_count(circuit, Criterion::kFunctionalSensitizable);
  ASSERT_EQ(via_sat.engine, EngineRung::kExact);
  ASSERT_TRUE(via_bdd.has_value());
  EXPECT_EQ(via_sat.classify.kept_paths, *via_bdd);
}

TEST(SatEquivalence, AgreesWithBddChecker) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    PlaProfile profile;
    profile.name = "se" + std::to_string(seed);
    profile.num_inputs = 9;
    profile.num_outputs = 4;
    profile.num_cubes = 26;
    profile.min_literals = 2;
    profile.max_literals = 6;
    profile.seed = seed;
    const Pla pla = make_pla_like(profile);
    const Circuit two_level = synthesize_two_level(pla);
    const Circuit multi_level = synthesize_multilevel(pla);
    const auto via_sat = sat_equivalent(two_level, multi_level);
    ASSERT_TRUE(via_sat.has_value());
    EXPECT_TRUE(*via_sat);
  }
  // Non-equivalence must be detected too.
  const Circuit example = paper_example_circuit();
  Circuit other("different");
  const GateId a = other.add_input("a");
  const GateId b = other.add_input("b");
  const GateId c = other.add_input("c");
  const GateId g = other.add_gate(GateType::kOr, "g", {a, b, c});
  other.add_output("y", g);
  other.finalize();
  const auto verdict = sat_equivalent(example, other);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_FALSE(*verdict);
}

TEST(Dimacs, WellFormedExport) {
  const Circuit circuit = c17();
  const std::string text = write_dimacs_string(circuit);
  // Header present with the right variable count.
  EXPECT_NE(text.find("p cnf 13 "), std::string::npos);  // 13 gates
  EXPECT_NE(text.find("c input 1 = var"), std::string::npos);
  EXPECT_NE(text.find("c output 22 = var"), std::string::npos);
  // Every clause line ends in 0.
  std::istringstream in(text);
  std::string line;
  std::size_t clause_lines = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == 'c' || line[0] == 'p') continue;
    ASSERT_GE(line.size(), 2u);
    EXPECT_EQ(line.substr(line.size() - 2), " 0");
    ++clause_lines;
  }
  // 6 NAND gates * 3 clauses + 2 PO buffers * 2 clauses = 22.
  EXPECT_EQ(clause_lines, 22u);
}

}  // namespace
}  // namespace rd
