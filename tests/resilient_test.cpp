// End-to-end tests of the graceful-degradation ladder: the classifier
// runs once and each kept path is refined by SAT on its PO cone, which
// the exhaustive sweep checks as an independent oracle; capacity
// misses and guard trips degrade to the approximate rung, which keeps
// a sound superset of the truly sensitizable paths.  A guard trip
// after the classifier keeps its set but reports the abort.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/classify.h"
#include "core/exact.h"
#include "core/heuristics.h"
#include "core/resilient.h"
#include "gen/examples.h"
#include "gen/iscas_like.h"
#include "gen/pla_like.h"
#include "paths/path.h"
#include "sat/cnf.h"
#include "sat/solver.h"
#include "synth/synth.h"
#include "util/exec_guard.h"
#include "util/rng.h"

namespace rd {
namespace {

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
  EXPECT_STREQ(engine_rung_name(EngineRung::kApproximate), "approximate");
}

/// The MCNC-like Table III stand-in `name`, synthesized multi-level.
Circuit mcnc_like(const std::string& name) {
  for (const PlaProfile& profile : mcnc_profiles())
    if (profile.name == name)
      return synthesize_multilevel(make_pla_like(profile));
  ADD_FAILURE() << "no profile " << name;
  return Circuit();
}

TEST(Resilient, ExactRungAnswersOnSmallCircuit) {
  // The ladder's SAT refinement against the exhaustive sweep, which
  // shares no code with it or the DFS: the refined kept set is the
  // exact one, path by path, on every circuit small enough to sweep.
  std::vector<Circuit> circuits;
  circuits.push_back(c17());
  circuits.push_back(paper_example_circuit());
  circuits.push_back(mcnc_like("bw"));
  circuits.push_back(mcnc_like("Z5xp1"));
  for (const Circuit& circuit : circuits) {
    const InputSort sort = heuristic1(circuit);
    for (const Criterion criterion :
         {Criterion::kFunctionalSensitizable, Criterion::kNonRobust,
          Criterion::kInputSort}) {
      ResilientOptions options;
      options.classify.criterion = criterion;
      options.classify.sort =
          criterion == Criterion::kInputSort ? &sort : nullptr;
      options.classify.collect_paths_limit = std::uint64_t{1} << 20;
      const LogicalPathSet exact =
          exact_kept_paths(circuit, criterion, options.classify.sort);
      for (const std::size_t threads : {1u, 2u, 4u}) {
        SCOPED_TRACE(circuit.name() + " criterion " +
                     std::to_string(static_cast<int>(criterion)) +
                     " threads " + std::to_string(threads));
        options.classify.num_threads = threads;
        const ResilientClassifyResult result =
            classify_resilient(circuit, options);
        EXPECT_EQ(result.engine, EngineRung::kExact);
        EXPECT_EQ(result.degraded_reason, AbortReason::kNone);
        ASSERT_TRUE(result.classify.completed);
        EXPECT_EQ(result.classify.kept_paths, exact.size());
        const LogicalPathSet kept(result.classify.kept_keys.begin(),
                                  result.classify.kept_keys.end());
        EXPECT_EQ(kept.size(), result.classify.kept_keys.size());
        EXPECT_EQ(kept, exact);
      }
    }
  }
}

TEST(Resilient, DegradesToApproximateWhenSatCapped) {
  // More kept paths than the refinement cap leave the kept set
  // unrefined: the run keeps the classifier's complete answer and
  // holds no keys the caller did not ask for.
  const Circuit circuit = c17();
  ResilientOptions options;
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
      EXPECT_EQ(result.degraded_reason, cause) << key_limit;
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

TEST(Resilient, HeldKeysAreChargedToTheGuard) {
  // At one thread the check count is deterministic, so the first
  // refinement check is the one after the classifier's.  The held keys
  // count against the memory ceiling there, and every charge is
  // released by the time the ladder returns.
  const Circuit circuit = paper_example_circuit();
  ResilientOptions options;
  options.classify.collect_paths_limit = std::uint64_t{1} << 20;
  const ClassifyResult classified = classify_paths(circuit, options.classify);
  ASSERT_GT(classified.kept_paths, 0u);
  std::uint64_t held_bytes = 0;
  for (const auto& key : classified.kept_keys)
    held_bytes += sizeof(key) + key.size() * sizeof(key[0]);
  const std::uint64_t first_refinement_check =
      classifier_checks(circuit, options) + 1;

  ExecGuard guard;
  guard.add_memory(1000);  // a charge the ladder does not own
  const std::uint64_t before = guard.memory_used();
  std::uint64_t while_refining = 0;
  guard.inject_at_check(first_refinement_check,
                        [&] { while_refining = guard.memory_used(); });
  options.guard = &guard;
  const ResilientClassifyResult result = classify_resilient(circuit, options);
  EXPECT_EQ(result.engine, EngineRung::kExact);
  EXPECT_GE(while_refining, before + held_bytes);
  EXPECT_EQ(guard.memory_used(), before);

  // A ceiling just under the refinement's charge trips there: the run
  // keeps the classifier's set and reports the memory cause.
  ExecGuardOptions ceiling;
  ceiling.memory_limit_bytes = while_refining - 1;
  ExecGuard tight(ceiling);
  tight.add_memory(1000);
  options.guard = &tight;
  const ResilientClassifyResult tripped = classify_resilient(circuit, options);
  EXPECT_EQ(tight.checks(), first_refinement_check);
  EXPECT_EQ(tripped.engine, EngineRung::kApproximate);
  EXPECT_EQ(tripped.degraded_reason, AbortReason::kMemory);
  EXPECT_FALSE(tripped.classify.completed);
  EXPECT_EQ(tripped.classify.abort_reason, AbortReason::kMemory);
  EXPECT_EQ(tripped.classify.kept_paths, classified.kept_paths);
  EXPECT_EQ(tripped.classify.kept_keys, classified.kept_keys);
  EXPECT_EQ(tight.memory_used(), before);
}

TEST(Resilient, EveryRungKeepsSupersetOfExact) {
  // Soundness across the whole ladder on the paper's example circuit:
  // the exact rung keeps the exhaustive set and the approximate rung a
  // superset of it.
  const Circuit circuit = paper_example_circuit();
  const LogicalPathSet exact =
      exact_kept_paths(circuit, Criterion::kFunctionalSensitizable);

  const ResilientClassifyResult refined = classify_resilient(circuit, {});
  ASSERT_EQ(refined.engine, EngineRung::kExact);

  const ResilientClassifyResult approx =
      internal::classify_resilient(circuit, {}, 0);
  ASSERT_EQ(approx.engine, EngineRung::kApproximate);

  EXPECT_EQ(refined.classify.kept_paths, exact.size());
  EXPECT_GE(approx.classify.kept_paths, refined.classify.kept_paths);
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
    EXPECT_EQ(result.engine, EngineRung::kExact) << threads;
    EXPECT_EQ(result.degraded_reason, AbortReason::kNone) << threads;
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
  EXPECT_EQ(counted.engine, EngineRung::kExact);
  EXPECT_EQ(counted.degraded_reason, AbortReason::kNone);
  EXPECT_EQ(counted.classify.kept_paths, 14036u);
  EXPECT_TRUE(counted.classify.kept_keys.empty());
}

}  // namespace
}  // namespace rd
