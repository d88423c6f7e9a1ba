// Differential fuzzing across independent engines: randomized circuits
// run through pairs of implementations that must agree (or satisfy a
// one-sided refinement), parameterized over seeds.
//
//   classifier (approx)  vs  SAT (exact):   approx ⊇ exact, path-wise
//   BDD, sweep (exact)   vs  SAT (exact):   equal, path-wise
//   bench writer+reader  vs  original:      SAT-equivalent
//   leaf-dag             vs  cone:          SAT-equivalent
//   transformations      vs  Lemma 1:       hierarchy holds post-rewrite
#include <gtest/gtest.h>

#include "bdd/bdd_circuit.h"
#include "core/classify.h"
#include "core/exact.h"
#include "core/heuristics.h"
#include "gen/iscas_like.h"
#include "io/bench_io.h"
#include "netlist/transform.h"
#include "paths/counting.h"
#include "sat/cnf.h"
#include "unfold/leaf_dag.h"

namespace rd {
namespace {

class Differential : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Circuit make(double xor_fraction = 0.15) const {
    IscasProfile profile;
    profile.name = "dfz" + std::to_string(GetParam());
    profile.num_inputs = 8;
    profile.num_outputs = 4;
    profile.num_gates = 34;
    profile.num_levels = 6;
    profile.xor_fraction = xor_fraction;
    profile.seed = GetParam();
    return make_iscas_like(profile);
  }

  std::vector<LogicalPath> paths_of(const Circuit& circuit) const {
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
};

TEST_P(Differential, ClassifierIsSoundAgainstSat) {
  const Circuit circuit = make();
  SatSolver solver;
  const CircuitCnf cnf(circuit, solver);
  const InputSort sort = heuristic1_sort(circuit);
  for (const LogicalPath& path : paths_of(circuit)) {
    for (Criterion criterion :
         {Criterion::kFunctionalSensitizable, Criterion::kNonRobust,
          Criterion::kInputSort}) {
      const InputSort* sort_ptr =
          criterion == Criterion::kInputSort ? &sort : nullptr;
      const bool approx = path_survives_local_implications(
          circuit, path, criterion, sort_ptr);
      const auto exact =
          sat_sensitizable(circuit, cnf, solver, path, criterion, sort_ptr);
      ASSERT_TRUE(exact.has_value());
      // Soundness of pruning: approx=false (an implication conflict)
      // must imply exact=false.
      if (!approx) {
        ASSERT_FALSE(*exact)
            << path_to_string(circuit, path) << " criterion "
            << static_cast<int>(criterion);
      }
    }
  }
}

TEST_P(Differential, BddAndSatAgreePathwise) {
  const Circuit circuit = make(0.0);
  BddManager manager(static_cast<std::uint32_t>(circuit.inputs().size()));
  const auto bdds = CircuitBdds::try_build(circuit, manager);
  ASSERT_TRUE(bdds.has_value());
  SatSolver solver;
  const CircuitCnf cnf(circuit, solver);
  const InputSort sort = InputSort::natural(circuit);
  for (const LogicalPath& path : paths_of(circuit)) {
    for (Criterion criterion :
         {Criterion::kFunctionalSensitizable, Criterion::kNonRobust,
          Criterion::kInputSort}) {
      SCOPED_TRACE(path_to_string(circuit, path) + " criterion " +
                   std::to_string(static_cast<int>(criterion)));
      const InputSort* sort_ptr =
          criterion == Criterion::kInputSort ? &sort : nullptr;
      const auto via_bdd =
          bdd_sensitizable(circuit, *bdds, path, criterion, sort_ptr);
      const auto via_sat =
          sat_sensitizable(circuit, cnf, solver, path, criterion, sort_ptr);
      ASSERT_TRUE(via_bdd.has_value());
      ASSERT_TRUE(via_sat.has_value());
      ASSERT_EQ(*via_bdd, *via_sat);
      ASSERT_EQ(exactly_sensitizable(circuit, path, criterion, sort_ptr),
                *via_sat);
    }
  }
}

TEST_P(Differential, BenchRoundTripIsEquivalent) {
  const Circuit circuit = make();
  const Circuit reparsed = read_bench_string(write_bench_string(circuit),
                                             circuit.name());
  const auto verdict = sat_equivalent(circuit, reparsed);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_TRUE(*verdict);
}

TEST_P(Differential, LeafDagMatchesConeFunction) {
  const Circuit circuit = make();
  for (GateId po : circuit.outputs()) {
    const LeafDag leaf = build_leaf_dag(circuit, po, 1u << 16);
    if (!leaf.complete) continue;
    const Circuit cone = circuit.extract_cone(po);
    const auto verdict = sat_equivalent(cone, leaf.dag);
    ASSERT_TRUE(verdict.has_value());
    EXPECT_TRUE(*verdict) << circuit.gate(po).name;
  }
}

TEST_P(Differential, HierarchyHoldsAfterTransformation) {
  // Lemma 1's containment is a property of any circuit, including
  // rewritten ones: T^sup ⊆ LP^sup(σ^π) ⊆ FS^sup.
  const Circuit circuit = map_to_nand(decompose_fanin(make(), 3));
  const InputSort sort = InputSort::natural(circuit);
  ClassifyOptions options;
  options.criterion = Criterion::kNonRobust;
  const auto t = classify_paths(circuit, options);
  options.criterion = Criterion::kInputSort;
  options.sort = &sort;
  const auto lp = classify_paths(circuit, options);
  options.criterion = Criterion::kFunctionalSensitizable;
  options.sort = nullptr;
  const auto fs = classify_paths(circuit, options);
  EXPECT_LE(t.kept_paths, lp.kept_paths);
  EXPECT_LE(lp.kept_paths, fs.kept_paths);
  EXPECT_EQ(fs.total_logical, lp.total_logical);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Differential,
                         ::testing::Values(201u, 202u, 203u, 204u, 205u,
                                           206u));

}  // namespace
}  // namespace rd
