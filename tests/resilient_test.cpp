// End-to-end tests of the graceful-degradation ladder: the classifier
// runs once and each kept path is refined by the sweep when feasible,
// else by SAT on its PO cone; capacity misses and guard trips degrade
// to the SAT-bounded and approximate rungs in order, and every rung
// keeps a sound superset of the truly sensitizable paths.  A guard
// trip after the classifier keeps its set but reports the abort.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "core/classify.h"
#include "core/exact.h"
#include "core/heuristics.h"
#include "core/resilient.h"
#include "gen/examples.h"
#include "gen/iscas_like.h"
#include "paths/path.h"
#include "sat/cnf.h"
#include "sat/solver.h"
#include "util/exec_guard.h"
#include "util/rng.h"

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
      std::uint64_t{1} << 20);
  return paths;
}

/// Guard checks one classifier run under `options` makes on
/// `circuit`.  The ladder's first run is that one, so a trip injected
/// at the next check lands after it: in the key-collecting second run
/// when the caller's key limit is below the kept count, else in the
/// refinement of the first kept path.
std::uint64_t classifier_checks(const Circuit& circuit,
                                const ResilientOptions& options) {
  ExecGuard guard;
  ClassifyOptions counted = options.classify;
  counted.guard = &guard;
  EXPECT_TRUE(classify_paths(circuit, counted).completed);
  return guard.checks();
}

/// Heuristic 1's sort with the front ends' tie-break stream.
InputSort heuristic1(const Circuit& circuit) {
  Rng rng(1);
  return *build_input_sort(circuit, "1", {}, &rng).sort;
}

TEST(EngineRung, StableNames) {
  EXPECT_STREQ(engine_rung_name(EngineRung::kExact), "exact");
  EXPECT_STREQ(engine_rung_name(EngineRung::kSatBounded), "sat");
  EXPECT_STREQ(engine_rung_name(EngineRung::kApproximate), "approximate");
}

TEST(Resilient, ExactRungAnswersOnSmallCircuit) {
  const Circuit circuit = c17();
  const ResilientClassifyResult result = classify_resilient(circuit, {});
  EXPECT_EQ(result.engine, EngineRung::kExact);
  EXPECT_EQ(result.degraded_reason, AbortReason::kNone);
  EXPECT_TRUE(result.classify.completed);
  const LogicalPathSet exact =
      exact_kept_paths(circuit, Criterion::kFunctionalSensitizable);
  EXPECT_EQ(result.classify.kept_paths, exact.size());
}

TEST(Resilient, DegradesToSatWhenExactInfeasible) {
  const Circuit circuit = c17();
  ResilientOptions options;
  options.exact_max_inputs = 1;  // c17 has 5 PIs: rung 1 is out of reach
  const ResilientClassifyResult result = classify_resilient(circuit, options);
  EXPECT_EQ(result.engine, EngineRung::kSatBounded);
  EXPECT_EQ(result.degraded_reason, AbortReason::kWorkBudget);
  EXPECT_TRUE(result.classify.completed);
  // SAT with a generous conflict budget answers every query exactly on
  // a circuit this small, so it matches the exhaustive sweep.
  const LogicalPathSet exact =
      exact_kept_paths(circuit, Criterion::kFunctionalSensitizable);
  EXPECT_EQ(result.classify.kept_paths, exact.size());
}

TEST(Resilient, DegradesToApproximateWhenSatCapped) {
  // More kept paths than the refinement cap leave the SAT rung
  // unanswered: the run keeps the classifier's complete answer and
  // holds no keys the caller did not ask for.
  const Circuit circuit = c17();
  ResilientOptions options;
  options.exact_max_inputs = 1;
  const ResilientClassifyResult result =
      internal::classify_resilient(circuit, options, 1);
  EXPECT_EQ(result.engine, EngineRung::kApproximate);
  EXPECT_EQ(result.degraded_reason, AbortReason::kWorkBudget);
  EXPECT_TRUE(result.classify.completed);
  EXPECT_EQ(result.classify.kept_paths,
            classify_paths(circuit, options.classify).kept_paths);
  EXPECT_TRUE(result.classify.kept_keys.empty());
  // The approximate rung keeps a superset of the exact survivors.
  const LogicalPathSet exact =
      exact_kept_paths(circuit, Criterion::kFunctionalSensitizable);
  EXPECT_GE(result.classify.kept_paths, exact.size());
}

TEST(Resilient, GuardTripDegradesThroughEveryRung) {
  const Circuit circuit = c17();
  ExecGuard guard;
  guard.inject_trip_at(1, AbortReason::kDeadline);
  ResilientOptions options;
  options.guard = &guard;
  const ResilientClassifyResult result = classify_resilient(circuit, options);
  // The classifier still emitted a structured partial result naming
  // the trip cause.
  EXPECT_EQ(result.engine, EngineRung::kApproximate);
  EXPECT_EQ(result.degraded_reason, AbortReason::kDeadline);
  EXPECT_FALSE(result.classify.completed);
  EXPECT_EQ(result.classify.abort_reason, AbortReason::kDeadline);
}

TEST(Resilient, GuardTripAfterClassifierReportsItsCause) {
  // A trip in the key-collecting second run or in the refinement keeps
  // the classifier's set and reports the run aborted with the cause,
  // so a cancelled or out-of-time run does not look complete.
  const Circuit circuit = c17();
  for (const std::uint64_t key_limit : {std::uint64_t{0}, std::uint64_t{64}}) {
    for (const AbortReason cause :
         {AbortReason::kCancelled, AbortReason::kDeadline}) {
      ResilientOptions options;
      options.exact_max_inputs = 1;
      options.classify.collect_paths_limit = key_limit;
      const std::uint64_t kept =
          classify_paths(circuit, options.classify).kept_paths;
      ASSERT_LT(kept, 64u);
      ExecGuard guard;
      guard.inject_trip_at(classifier_checks(circuit, options) + 1, cause);
      options.guard = &guard;
      const ResilientClassifyResult result =
          classify_resilient(circuit, options);
      EXPECT_EQ(result.engine, EngineRung::kApproximate) << key_limit;
      EXPECT_EQ(result.degraded_reason, AbortReason::kWorkBudget);
      EXPECT_FALSE(result.classify.completed) << key_limit;
      EXPECT_EQ(result.classify.abort_reason, cause) << key_limit;
      EXPECT_EQ(result.classify.kept_paths, kept) << key_limit;
      EXPECT_EQ(result.classify.kept_keys.size(),
                key_limit == 0 ? 0u : kept);
    }
  }
}

TEST(Resilient, UntrippedGuardMatchesGuardFreeRun) {
  const Circuit circuit = paper_example_circuit();
  ExecGuard guard;  // no ceilings: never trips
  ResilientOptions guarded;
  guarded.guard = &guard;
  const ResilientClassifyResult with_guard =
      classify_resilient(circuit, guarded);
  const ResilientClassifyResult without_guard =
      classify_resilient(circuit, {});
  EXPECT_EQ(with_guard.engine, without_guard.engine);
  EXPECT_EQ(with_guard.classify.kept_paths, without_guard.classify.kept_paths);
  EXPECT_EQ(with_guard.degraded_reason, AbortReason::kNone);
}

TEST(Resilient, PathVerdictExactRung) {
  const Circuit circuit = c17();
  for (const LogicalPath& path : all_logical_paths(circuit)) {
    const ResilientPathVerdict verdict = resilient_path_sensitizable(
        circuit, path, Criterion::kFunctionalSensitizable);
    EXPECT_TRUE(verdict.exact);
    EXPECT_EQ(verdict.engine, EngineRung::kExact);
    EXPECT_EQ(verdict.degraded_reason, AbortReason::kNone);
    EXPECT_EQ(verdict.survives,
              exactly_sensitizable(circuit, path,
                                   Criterion::kFunctionalSensitizable));
  }
}

TEST(Resilient, PathVerdictSatRungStaysExact) {
  const Circuit circuit = c17();
  ResilientOptions options;
  options.exact_max_inputs = 1;  // force the SAT rung
  for (const LogicalPath& path : all_logical_paths(circuit)) {
    const ResilientPathVerdict verdict = resilient_path_sensitizable(
        circuit, path, Criterion::kFunctionalSensitizable, nullptr, options);
    EXPECT_TRUE(verdict.exact);
    EXPECT_EQ(verdict.engine, EngineRung::kSatBounded);
    EXPECT_EQ(verdict.degraded_reason, AbortReason::kWorkBudget);
    EXPECT_EQ(verdict.survives,
              exactly_sensitizable(circuit, path,
                                   Criterion::kFunctionalSensitizable));
  }
}

TEST(Resilient, PathVerdictFallsToApproximateOnTrippedGuard) {
  const Circuit circuit = c17();
  ExecGuard guard;
  guard.trip(AbortReason::kMemory);
  ResilientOptions options;
  options.guard = &guard;
  const std::vector<LogicalPath> paths = all_logical_paths(circuit);
  ASSERT_FALSE(paths.empty());
  const ResilientPathVerdict verdict = resilient_path_sensitizable(
      circuit, paths.front(), Criterion::kFunctionalSensitizable, nullptr,
      options);
  EXPECT_FALSE(verdict.exact);
  EXPECT_EQ(verdict.engine, EngineRung::kApproximate);
  EXPECT_EQ(verdict.degraded_reason, AbortReason::kMemory);
  // The approximate verdict must stay keep-side sound.
  if (exactly_sensitizable(circuit, paths.front(),
                           Criterion::kFunctionalSensitizable)) {
    EXPECT_TRUE(verdict.survives);
  }
}

TEST(Resilient, EveryRungKeepsSupersetOfExact) {
  // Soundness across the whole ladder on the paper's example circuit:
  // each rung's kept count is >= the exhaustive one and the rungs are
  // ordered approximate >= sat >= exact.
  const Circuit circuit = paper_example_circuit();
  const LogicalPathSet exact =
      exact_kept_paths(circuit, Criterion::kFunctionalSensitizable);

  ResilientOptions sat_only;
  sat_only.exact_max_inputs = 0;
  const ResilientClassifyResult sat = classify_resilient(circuit, sat_only);
  ASSERT_EQ(sat.engine, EngineRung::kSatBounded);

  ResilientOptions approx_only;
  approx_only.exact_max_inputs = 0;
  const ResilientClassifyResult approx =
      internal::classify_resilient(circuit, approx_only, 0);
  ASSERT_EQ(approx.engine, EngineRung::kApproximate);

  EXPECT_GE(sat.classify.kept_paths, exact.size());
  EXPECT_GE(approx.classify.kept_paths, sat.classify.kept_paths);
}

TEST(Resilient, ConeEncodingMatchesWholeCircuit) {
  // A path's constraints lie in its PO's fan-in cone, so the cone
  // encoding answers every query as the whole-circuit one does.
  for (const char* name : {"c432", "c880"}) {
    const Circuit circuit = make_benchmark(name);
    const InputSort sort = heuristic1(circuit);
    for (const Criterion criterion :
         {Criterion::kFunctionalSensitizable, Criterion::kNonRobust,
          Criterion::kInputSort}) {
      ClassifyOptions options;
      options.criterion = criterion;
      options.sort = criterion == Criterion::kInputSort ? &sort : nullptr;
      options.collect_paths_limit = std::uint64_t{1} << 20;
      const ClassifyResult classified = classify_paths(circuit, options);
      ASSERT_TRUE(classified.completed);
      ASSERT_EQ(classified.kept_keys.size(), classified.kept_paths);

      SatSolver whole_solver;
      const CircuitCnf whole(circuit, whole_solver);
      struct Cone {
        Cone(const Circuit& circuit, GateId po) : cnf(circuit, solver, po) {}
        SatSolver solver;
        CircuitCnf cnf;
      };
      std::map<GateId, Cone> cones;
      for (const auto& key : classified.kept_keys) {
        const LogicalPath path = LogicalPath::from_key(key);
        const GateId po = path_po(circuit, path.path);
        Cone& cone = cones.try_emplace(po, circuit, po).first->second;
        const auto via_cone = sat_sensitizable(
            circuit, cone.cnf, cone.solver, path, criterion, options.sort);
        const auto via_whole = sat_sensitizable(
            circuit, whole, whole_solver, path, criterion, options.sort);
        ASSERT_TRUE(via_cone.has_value());
        ASSERT_EQ(via_cone, via_whole)
            << name << " " << path_to_string(circuit, path);
      }
    }
  }
}

TEST(Resilient, SatRefinementIsExactOnC3540) {
  // The first nonzero Heuristic 1 gap on a Table II stand-in: the
  // classifier keeps 14 189 paths, 153 of which have no witness.
  const Circuit circuit = make_benchmark("c3540");
  const InputSort sort = heuristic1(circuit);
  ResilientOptions options;
  options.classify.criterion = Criterion::kInputSort;
  options.classify.sort = &sort;
  options.classify.collect_paths_limit = std::uint64_t{1} << 20;

  const ClassifyResult classified = classify_paths(circuit, options.classify);
  ASSERT_EQ(classified.kept_paths, 14189u);
  const std::set<std::vector<std::uint32_t>> approximate(
      classified.kept_keys.begin(), classified.kept_keys.end());

  std::vector<std::vector<std::uint32_t>> serial_keys;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    options.classify.num_threads = threads;
    const ResilientClassifyResult result = classify_resilient(circuit, options);
    EXPECT_EQ(result.engine, EngineRung::kSatBounded) << threads;
    EXPECT_EQ(result.degraded_reason, AbortReason::kWorkBudget) << threads;
    ASSERT_TRUE(result.classify.completed);
    EXPECT_EQ(result.classify.kept_paths, 14036u) << threads;
    ASSERT_EQ(result.classify.kept_keys.size(), result.classify.kept_paths);
    for (const auto& key : result.classify.kept_keys)
      EXPECT_EQ(approximate.count(key), 1u);
    if (threads == 1) {
      serial_keys = result.classify.kept_keys;
    } else {
      EXPECT_EQ(result.classify.kept_keys, serial_keys) << threads;
    }
  }

  // A caller that asks for no keys gets the same count from the
  // ladder's own key-collecting run, and no keys.
  options.classify.collect_paths_limit = 0;
  const ResilientClassifyResult counted = classify_resilient(circuit, options);
  EXPECT_EQ(counted.engine, EngineRung::kSatBounded);
  EXPECT_EQ(counted.classify.kept_paths, 14036u);
  EXPECT_TRUE(counted.classify.kept_keys.empty());
}

}  // namespace
}  // namespace rd
