// Parameterized property tests: invariants swept over seeds, criteria
// and generator profiles (gtest TEST_P / INSTANTIATE_TEST_SUITE_P).
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "atpg/robust.h"
#include "core/classify.h"
#include "core/exact.h"
#include "core/heuristics.h"
#include "gen/carry_mesh.h"
#include "gen/iscas_like.h"
#include "paths/counting.h"
#include "sim/implication.h"
#include "sim/logic_sim.h"
#include "sim/timed_sim.h"
#include "util/biguint.h"
#include "util/exec_guard.h"
#include "util/rng.h"

namespace rd {
namespace {

Circuit small_circuit(std::uint64_t seed, double xor_fraction = 0.15) {
  IscasProfile profile;
  profile.name = "p" + std::to_string(seed);
  profile.num_inputs = 6;
  profile.num_outputs = 3;
  profile.num_gates = 24;
  profile.num_levels = 5;
  profile.xor_fraction = xor_fraction;
  profile.seed = seed;
  return make_iscas_like(profile);
}

// ---- classifier soundness across criteria and seeds ----------------------

class ClassifierProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, Criterion>> {};

TEST_P(ClassifierProperty, KeptSetIsSupersetOfExact) {
  const auto [seed, criterion] = GetParam();
  const Circuit circuit = small_circuit(seed);
  const InputSort sort = InputSort::natural(circuit);
  const InputSort* sort_ptr =
      criterion == Criterion::kInputSort ? &sort : nullptr;

  ClassifyOptions options;
  options.criterion = criterion;
  options.sort = sort_ptr;
  options.collect_paths_limit = 1u << 18;
  const ClassifyResult result = classify_paths(circuit, options);

  LogicalPathSet approx;
  for (const auto& key : result.kept_keys) approx.insert(key);
  ASSERT_EQ(approx.size(), result.kept_paths);

  const LogicalPathSet exact = exact_kept_paths(circuit, criterion, sort_ptr);
  for (const auto& key : exact)
    ASSERT_TRUE(approx.count(key))
        << "exact-sensitizable path pruned by the classifier";

  // Accounting invariant.
  ASSERT_EQ(result.rd_paths + BigUint(result.kept_paths),
            result.total_logical);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndCriteria, ClassifierProperty,
    ::testing::Combine(::testing::Values(11u, 12u, 13u, 14u, 15u, 16u),
                       ::testing::Values(Criterion::kFunctionalSensitizable,
                                         Criterion::kNonRobust,
                                         Criterion::kInputSort)));

// ---- generator profile conformance ----------------------------------------

class ProfileProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(ProfileProperty, MatchesInterfaceAndPathTarget) {
  const std::string name = GetParam();
  IscasProfile profile;
  for (const IscasProfile& candidate : iscas85_profiles())
    if (candidate.name == name) profile = candidate;
  ASSERT_EQ(profile.name, name);

  const Circuit circuit = make_benchmark(name);
  EXPECT_EQ(circuit.inputs().size(), profile.num_inputs);
  EXPECT_EQ(circuit.outputs().size(), profile.num_outputs);
  // Gate count within 50% of the published figure.
  EXPECT_GT(circuit.num_logic_gates(), profile.num_gates / 2);
  EXPECT_LT(circuit.num_logic_gates(), profile.num_gates * 2);

  if (profile.target_logical_paths != 0) {
    const PathCounts counts(circuit);
    const double total = counts.total_logical().to_double();
    const double target =
        static_cast<double>(profile.target_logical_paths);
    EXPECT_GT(total, 0.2 * target) << name;
    EXPECT_LT(total, 5.0 * target) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Iscas85, ProfileProperty,
                         ::testing::Values("c432", "c499", "c880", "c1355",
                                           "c1908", "c2670", "c3540", "c5315",
                                           "c7552"));

// ---- BigUint algebra -------------------------------------------------------

class BigUintProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BigUintProperty, RingIdentities) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t a = rng.next_u64() >> 16;
    const std::uint64_t b = rng.next_u64() >> 16;
    const std::uint64_t c = rng.next_u64() >> 16;

    // (a + b) * c == a*c + b*c, verified against unsigned __int128.
    BigUint lhs = BigUint(a) + BigUint(b);
    lhs *= c;
    const BigUint rhs = BigUint(a) * BigUint(c) + BigUint(b) * BigUint(c);
    ASSERT_EQ(lhs, rhs);

    const unsigned __int128 oracle =
        (static_cast<unsigned __int128>(a) + b) * c;
    const std::uint64_t low = static_cast<std::uint64_t>(oracle);
    const std::uint64_t high = static_cast<std::uint64_t>(oracle >> 64);
    BigUint composed(high);
    composed *= BigUint(std::uint64_t{1} << 32);
    composed *= BigUint(std::uint64_t{1} << 32);
    composed += low;
    ASSERT_EQ(lhs, composed);

    // Subtraction inverts addition.
    BigUint back = lhs;
    back -= BigUint(a) * BigUint(c);
    ASSERT_EQ(back, BigUint(b) * BigUint(c));

    // Decimal round trip.
    ASSERT_EQ(BigUint::from_decimal(lhs.to_decimal()), lhs);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigUintProperty,
                         ::testing::Values(1u, 2u, 3u, 4u));

// ---- implication engine order independence --------------------------------

class ImplicationProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ImplicationProperty, OrderIndependentFixpoint) {
  const Circuit circuit = small_circuit(GetParam(), 0.0);
  Rng rng(GetParam() * 977);
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<std::pair<GateId, Value3>> assertions;
    for (int i = 0; i < 3; ++i)
      assertions.emplace_back(
          static_cast<GateId>(rng.next_below(circuit.num_gates())),
          rng.next_bool(0.5) ? Value3::kOne : Value3::kZero);

    auto run = [&](bool reversed) {
      ImplicationEngine engine(circuit);
      bool ok = true;
      auto apply = [&](const std::pair<GateId, Value3>& assertion) {
        ok = ok && engine.assign(assertion.first, assertion.second);
      };
      if (reversed)
        for (auto it = assertions.rbegin(); it != assertions.rend(); ++it)
          apply(*it);
      else
        for (const auto& assertion : assertions) apply(assertion);
      std::vector<Value3> values(circuit.num_gates(), Value3::kUnknown);
      if (ok)
        for (GateId id = 0; id < circuit.num_gates(); ++id)
          values[id] = engine.value(id);
      return std::make_pair(ok, values);
    };

    const auto forward = run(false);
    const auto backward = run(true);
    // Conflict status must agree; implied values must agree when both
    // succeed (the implication closure is a fixpoint, independent of
    // assertion order).
    ASSERT_EQ(forward.first, backward.first);
    if (forward.first) {
      ASSERT_EQ(forward.second, backward.second);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ImplicationProperty,
                         ::testing::Values(21u, 22u, 23u, 24u, 25u));

// ---- parallel engine invariance -------------------------------------------

class ParallelInvarianceProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {
};

TEST_P(ParallelInvarianceProperty, CountsInvariantUnderThreadsAndSandwiched) {
  const auto [seed, threads] = GetParam();
  const Circuit circuit = small_circuit(seed);
  const InputSort sort = heuristic1_sort(circuit);

  // RD counts are a function of (circuit, criterion, sort) only: the
  // classifier consumes no randomness and no scheduling state, so the
  // parallel engine must reproduce the serial counts at every thread
  // count, for every criterion.
  std::uint64_t kept[3];
  std::size_t slot = 0;
  for (Criterion criterion :
       {Criterion::kNonRobust, Criterion::kInputSort,
        Criterion::kFunctionalSensitizable}) {
    ClassifyOptions options;
    options.criterion = criterion;
    options.sort = criterion == Criterion::kInputSort ? &sort : nullptr;
    const ClassifyResult serial = classify_paths_serial(circuit, options);
    options.num_threads = threads;
    const ClassifyResult parallel = classify_paths_parallel(circuit, options);
    ASSERT_TRUE(serial.completed);
    ASSERT_TRUE(parallel.completed);
    ASSERT_EQ(serial.kept_paths, parallel.kept_paths)
        << "criterion " << static_cast<int>(criterion);
    ASSERT_EQ(serial.rd_paths, parallel.rd_paths);
    ASSERT_EQ(serial.work, parallel.work);
    kept[slot++] = parallel.kept_paths;
  }

  // Lemma 1 sandwich T(C) ⊆ LP(σ) ⊆ FS(C) at the approximation level,
  // verified on the parallel engine's counts: non-robust ≤ input-sort
  // ≤ functional-sensitizable.
  EXPECT_LE(kept[0], kept[1]) << "T^sup ⊄ LP^sup";
  EXPECT_LE(kept[1], kept[2]) << "LP^sup ⊄ FS^sup";
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndThreads, ParallelInvarianceProperty,
    ::testing::Combine(::testing::Values(51u, 52u, 53u, 54u),
                       ::testing::Values(2u, 4u, 8u)));

// ---- path-tree sharding invariance ----------------------------------------

class PathTreeInvariance
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(PathTreeInvariance, BitIdenticalToReferenceOnDeepMeshes) {
  const auto [depth, threads] = GetParam();
  CarryMeshProfile profile;
  profile.width = 3;
  profile.depth = depth;
  const Circuit circuit = make_carry_mesh(profile);

  // The deep-mesh regime forces the parallel engine past per-seed
  // sharding (3 seeds, thousands of paths): work items are subtrees of
  // the shared prefix tree.  Every deterministic field must still be
  // bit-identical to the frozen reference engine.
  ClassifyOptions options;
  options.criterion = Criterion::kFunctionalSensitizable;
  options.collect_paths_limit = 1u << 18;
  options.collect_lead_counts = true;
  const ClassifyResult reference = classify_paths_reference(circuit, options);
  options.num_threads = threads;
  const ClassifyResult parallel = classify_paths_parallel(circuit, options);
  ASSERT_TRUE(reference.completed);
  ASSERT_TRUE(parallel.completed);
  ASSERT_EQ(parallel.kept_paths, reference.kept_paths);
  ASSERT_EQ(parallel.rd_paths, reference.rd_paths);
  ASSERT_EQ(parallel.work, reference.work);
  ASSERT_EQ(parallel.kept_keys, reference.kept_keys);
  ASSERT_EQ(parallel.kept_controlling_per_lead,
            reference.kept_controlling_per_lead);
  ASSERT_EQ(parallel.implication, reference.implication);

  // Work limits landing mid-subtree: one unit short of completion
  // aborts with the same typed verdict as serial; exactly the full
  // budget completes (the boundary is exact at every thread count).
  options.work_limit = reference.work - 1;
  const ClassifyResult short_serial = classify_paths_serial(circuit, options);
  const ClassifyResult short_parallel =
      classify_paths_parallel(circuit, options);
  ASSERT_FALSE(short_serial.completed);
  ASSERT_FALSE(short_parallel.completed);
  ASSERT_EQ(short_parallel.abort_reason, short_serial.abort_reason);
  options.work_limit = reference.work;
  ASSERT_TRUE(classify_paths_parallel(circuit, options).completed);
}

INSTANTIATE_TEST_SUITE_P(
    DepthsAndThreads, PathTreeInvariance,
    ::testing::Combine(::testing::Values(5u, 7u, 9u),
                       ::testing::Values(1u, 2u, 4u)));

// ---- reference == serial == parallel invariance ---------------------------

bool all_deterministic_fields_equal(const ClassifyResult& a,
                                    const ClassifyResult& b) {
  return a.kept_paths == b.kept_paths && a.work == b.work &&
         a.completed == b.completed && a.abort_reason == b.abort_reason &&
         a.kept_keys == b.kept_keys &&
         a.kept_controlling_per_lead == b.kept_controlling_per_lead &&
         a.implication == b.implication && a.learned == b.learned;
}

// Selectors 0..2 are random iscas-like circuits, 3..4 are carry meshes
// — the deep-tree regime where the parallel engine cuts below the seed
// level.
Circuit invariance_circuit(int selector) {
  if (selector < 3) return small_circuit(61u + selector);
  CarryMeshProfile profile;
  profile.width = 3;
  profile.depth = selector == 3 ? 5 : 7;
  return make_carry_mesh(profile);
}

// (circuit selector, threads, key cap): the frozen reference, the
// compiled serial engine and the parallel engine must agree on every
// deterministic field, with the kept-key collection truncated at the
// cap (collect_paths_limit) — the parallel merge must pick exactly the
// reference's first `cap` keys.  The suite and instantiation names
// predate the removal of the lane engine (DESIGN.md "Removed
// accelerators", whose lane widths the third axis used to sweep); they
// are kept so the test ids stay stable.
class BitparParallelInvariance
    : public ::testing::TestWithParam<
          std::tuple<int, std::size_t, std::size_t>> {};

TEST_P(BitparParallelInvariance, AllEnginesAgreeBitForBit) {
  const auto [selector, threads, cap] = GetParam();
  const Circuit circuit = invariance_circuit(selector);
  const InputSort sort = heuristic1_sort(circuit);

  for (Criterion criterion :
       {Criterion::kFunctionalSensitizable, Criterion::kNonRobust,
        Criterion::kInputSort}) {
    ClassifyOptions options;
    options.criterion = criterion;
    options.sort = criterion == Criterion::kInputSort ? &sort : nullptr;
    options.collect_lead_counts = true;
    options.collect_paths_limit = cap;

    // The frozen reference fixes the contract; the compiled serial and
    // parallel engines must reproduce it bit for bit.
    const ClassifyResult reference =
        classify_paths_reference(circuit, options);
    ASSERT_EQ(reference.kept_keys.size(),
              std::min<std::uint64_t>(cap, reference.kept_paths));
    const ClassifyResult serial = classify_paths_serial(circuit, options);
    ASSERT_TRUE(all_deterministic_fields_equal(reference, serial))
        << "criterion " << static_cast<int>(criterion) << " cap " << cap;
    options.num_threads = threads;
    const ClassifyResult parallel =
        classify_paths_parallel(circuit, options);
    ASSERT_TRUE(all_deterministic_fields_equal(reference, parallel))
        << "criterion " << static_cast<int>(criterion) << " cap " << cap
        << " threads " << threads;
  }
}

TEST_P(BitparParallelInvariance, WorkLimitBoundaryIsExact) {
  const auto [selector, threads, cap] = GetParam();
  const Circuit circuit = invariance_circuit(selector);
  ClassifyOptions options;
  options.collect_paths_limit = cap;
  const ClassifyResult full = classify_paths_serial(circuit, options);
  ASSERT_TRUE(full.completed);

  // One unit short of completion must abort with the reference
  // engine's exact verdict and partial counts (keys included, up to the
  // cap); exactly the full budget completes.
  options.work_limit = full.work - 1;
  const ClassifyResult short_reference =
      classify_paths_reference(circuit, options);
  const ClassifyResult short_serial = classify_paths_serial(circuit, options);
  ASSERT_FALSE(short_serial.completed);
  ASSERT_EQ(short_serial.abort_reason, AbortReason::kWorkBudget);
  ASSERT_TRUE(all_deterministic_fields_equal(short_reference, short_serial));
  options.num_threads = threads;
  const ClassifyResult short_parallel =
      classify_paths_parallel(circuit, options);
  ASSERT_FALSE(short_parallel.completed);
  ASSERT_EQ(short_parallel.abort_reason, AbortReason::kWorkBudget);
  options.work_limit = full.work;
  ASSERT_TRUE(classify_paths_serial(circuit, options).completed);
  ASSERT_TRUE(classify_paths_parallel(circuit, options).completed);
}

TEST_P(BitparParallelInvariance, InjectedGuardTripsIdentically) {
  const auto [selector, threads, cap] = GetParam();
  const Circuit circuit = invariance_circuit(selector);
  // A deterministic mid-run guard trip: the poll schedule is a pure
  // function of the step stream, so two serial runs must stop at the
  // same point with the same partial counts and keys.
  const auto tripped = [&circuit, cap = cap](std::size_t num_threads) {
    ExecGuard guard;
    guard.inject_trip_at(3, AbortReason::kDeadline);
    ClassifyOptions options;
    options.guard = &guard;
    options.collect_paths_limit = cap;
    options.num_threads = num_threads;
    return num_threads == 1 ? classify_paths_serial(circuit, options)
                            : classify_paths_parallel(circuit, options);
  };
  const ClassifyResult serial = tripped(1);
  EXPECT_FALSE(serial.completed);
  EXPECT_EQ(serial.abort_reason, AbortReason::kDeadline);
  EXPECT_LE(serial.kept_keys.size(), cap);
  ASSERT_TRUE(all_deterministic_fields_equal(serial, tripped(1)));
  // The parallel engine's partial counts are scheduling-dependent, but
  // the typed verdict must survive at every thread count.
  const ClassifyResult parallel = tripped(threads == 1 ? 2 : threads);
  EXPECT_FALSE(parallel.completed);
  EXPECT_EQ(parallel.abort_reason, AbortReason::kDeadline);
}

INSTANTIATE_TEST_SUITE_P(
    CircuitsThreadsLanes, BitparParallelInvariance,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4),
                       ::testing::Values(1u, 2u, 4u),
                       // Key caps: 1 and 7 truncate inside the first
                       // seeds' subtrees; the larger caps cut deeper or
                       // collect every kept path.
                       ::testing::Values(1u, 7u, 64u, 128u, 320u, 512u)));

// ---- learned-tier invariance -----------------------------------------------

// (circuit selector, threads, probe budget): the learned tier
// (ImplicationTier::kLearned, failed-literal probes of each survivor's
// side inputs, at most `budget` per survivor) must be a deterministic
// function of the circuit — identical across serial runs, thread counts
// and abort points — and may only drop survivors.  The suite name
// predates the removal of the static closure tier (DESIGN.md "Removed
// accelerators"); it is kept so the test ids stay stable.
class ClosureInvariance
    : public ::testing::TestWithParam<
          std::tuple<int, std::size_t, std::size_t>> {
 protected:
  static Circuit circuit_for(int selector) {
    return invariance_circuit(selector < 2 ? selector : selector + 1);
  }
  static ClassifyOptions learned_options(std::uint64_t budget) {
    ClassifyOptions options;
    options.implications = ImplicationTier::kLearned;
    options.learn_budget = budget;
    return options;
  }
};

TEST_P(ClosureInvariance, ClosureTierIsBitIdentical) {
  const auto [selector, threads, budget] = GetParam();
  const Circuit circuit = circuit_for(selector);
  const InputSort sort = heuristic1_sort(circuit);

  for (Criterion criterion :
       {Criterion::kFunctionalSensitizable, Criterion::kInputSort}) {
    ClassifyOptions off;
    off.criterion = criterion;
    off.sort = criterion == Criterion::kInputSort ? &sort : nullptr;
    off.collect_lead_counts = true;
    off.collect_paths_limit = 1u << 16;
    const ClassifyResult baseline = classify_paths_serial(circuit, off);
    EXPECT_FALSE(baseline.learned.has_value());

    ClassifyOptions with = learned_options(budget);
    with.criterion = off.criterion;
    with.sort = off.sort;
    with.collect_lead_counts = true;
    with.collect_paths_limit = off.collect_paths_limit;
    const ClassifyResult serial = classify_paths_serial(circuit, with);
    ASSERT_TRUE(serial.learned.has_value());
    // Probing runs at the leaves only: the DFS itself, and so its work
    // and implication stream up to each survivor, is the off run's.
    EXPECT_EQ(serial.work, baseline.work);
    EXPECT_EQ(serial.kept_paths + serial.learned->dropped,
              baseline.kept_paths);
    for (const auto& key : serial.kept_keys)
      EXPECT_NE(std::find(baseline.kept_keys.begin(),
                          baseline.kept_keys.end(), key),
                baseline.kept_keys.end());

    with.num_threads = threads;
    const ClassifyResult parallel = classify_paths_parallel(circuit, with);
    ASSERT_TRUE(all_deterministic_fields_equal(serial, parallel))
        << "budget " << budget << " threads " << threads;
  }
}

TEST_P(ClosureInvariance, LearnedTierShrinksDeterministically) {
  const auto [selector, threads, budget] = GetParam();
  const Circuit circuit = circuit_for(selector);

  ClassifyOptions off;
  off.collect_paths_limit = 1u << 16;
  const ClassifyResult baseline = classify_paths_serial(circuit, off);

  ClassifyOptions learned = learned_options(budget);
  learned.collect_paths_limit = off.collect_paths_limit;
  const ClassifyResult first = classify_paths_serial(circuit, learned);
  const ClassifyResult second = classify_paths_serial(circuit, learned);
  ASSERT_TRUE(all_deterministic_fields_equal(first, second));
  ASSERT_TRUE(first.learned.has_value());

  // kept(learned) ⊆ kept(local): probing only drops survivors.
  EXPECT_LE(first.kept_paths, baseline.kept_paths);
  EXPECT_EQ(first.kept_paths + first.learned->dropped, baseline.kept_paths);

  // A larger budget probes a superset of literals, so it never keeps
  // more than budget 1.
  ClassifyOptions narrow = learned;
  narrow.learn_budget = 1;
  EXPECT_LE(first.kept_paths, classify_paths_serial(circuit, narrow).kept_paths);

  // The drop decision depends only on the engine state at each
  // survivor, which is thread-count-independent.
  learned.num_threads = threads;
  const ClassifyResult parallel = classify_paths_parallel(circuit, learned);
  ASSERT_EQ(first.kept_paths, parallel.kept_paths);
  ASSERT_EQ(first.kept_keys, parallel.kept_keys);
  EXPECT_EQ(first.learned, parallel.learned);
}

TEST_P(ClosureInvariance, WorkLimitBoundaryIsExact) {
  const auto [selector, threads, budget] = GetParam();
  const Circuit circuit = circuit_for(selector);
  ClassifyOptions options = learned_options(budget);
  const ClassifyResult full = classify_paths_serial(circuit, options);
  ASSERT_TRUE(full.completed);

  // One unit short of completion: probes are not DFS extension steps,
  // so the learned run aborts exactly where the off run does, and the
  // partial counts are run-to-run identical.
  options.work_limit = full.work - 1;
  const ClassifyResult short_learned = classify_paths_serial(circuit, options);
  ASSERT_FALSE(short_learned.completed);
  ASSERT_EQ(short_learned.abort_reason, AbortReason::kWorkBudget);
  ASSERT_TRUE(all_deterministic_fields_equal(
      short_learned, classify_paths_serial(circuit, options)));
  ClassifyOptions off;
  off.work_limit = options.work_limit;
  const ClassifyResult short_off = classify_paths_serial(circuit, off);
  ASSERT_EQ(short_off.work, short_learned.work);
  ASSERT_EQ(short_off.kept_paths,
            short_learned.kept_paths + short_learned.learned->dropped);
  options.num_threads = threads;
  const ClassifyResult short_parallel =
      classify_paths_parallel(circuit, options);
  ASSERT_FALSE(short_parallel.completed);
  ASSERT_EQ(short_parallel.abort_reason, AbortReason::kWorkBudget);
  options.work_limit = full.work;
  ASSERT_TRUE(classify_paths_parallel(circuit, options).completed);
  options.num_threads = 1;
  ASSERT_TRUE(classify_paths_serial(circuit, options).completed);
}

TEST_P(ClosureInvariance, InjectedGuardTripsIdentically) {
  const auto [selector, threads, budget] = GetParam();
  const Circuit circuit = circuit_for(selector);
  // Probes never consume a guard check slot, so an injected trip lands
  // on the same check with and without the learned tier: the work done
  // before the trip matches the off run's.
  const auto tripped = [&circuit](ClassifyOptions options,
                                  std::size_t num_threads) {
    ExecGuard guard;
    guard.inject_trip_at(3, AbortReason::kDeadline);
    options.guard = &guard;
    options.num_threads = num_threads;
    return num_threads == 1 ? classify_paths_serial(circuit, options)
                            : classify_paths_parallel(circuit, options);
  };
  const ClassifyResult off = tripped(ClassifyOptions{}, 1);
  EXPECT_FALSE(off.completed);
  EXPECT_EQ(off.abort_reason, AbortReason::kDeadline);
  const ClassifyResult learned = tripped(learned_options(budget), 1);
  EXPECT_FALSE(learned.completed);
  EXPECT_EQ(learned.abort_reason, AbortReason::kDeadline);
  EXPECT_EQ(learned.work, off.work);
  ASSERT_TRUE(all_deterministic_fields_equal(
      learned, tripped(learned_options(budget), 1)));
  // The parallel engine's partial counts are scheduling-dependent, but
  // the typed verdict must survive at every thread count.
  const ClassifyResult parallel =
      tripped(learned_options(budget), threads == 1 ? 2 : threads);
  EXPECT_FALSE(parallel.completed);
  EXPECT_EQ(parallel.abort_reason, AbortReason::kDeadline);
}

INSTANTIATE_TEST_SUITE_P(
    CircuitsThreadsLanes, ClosureInvariance,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(1u, 2u, 4u),
                       // Probe budgets: 1 probes one side input per
                       // survivor; the larger budgets cover every side
                       // input of these circuits' paths.
                       ::testing::Values(1u, 64u, 128u, 320u, 512u)));

// ---- robust ⊆ non-robust ⊆ FS over seeds ----------------------------------

class HierarchyProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HierarchyProperty, RobustWithinNonRobustWithinFs) {
  const Circuit circuit = small_circuit(GetParam());
  std::vector<LogicalPath> paths;
  enumerate_paths(
      circuit,
      [&](const PhysicalPath& physical) {
        paths.push_back(LogicalPath{physical, false});
        paths.push_back(LogicalPath{physical, true});
      },
      1u << 14);
  for (const auto& path : paths) {
    const bool robust = is_robustly_testable(circuit, path);
    const bool non_robust =
        exactly_sensitizable(circuit, path, Criterion::kNonRobust);
    const bool fs = exactly_sensitizable(
        circuit, path, Criterion::kFunctionalSensitizable);
    if (robust) {
      EXPECT_TRUE(non_robust) << path_to_string(circuit, path);
    }
    if (non_robust) {
      EXPECT_TRUE(fs) << path_to_string(circuit, path);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HierarchyProperty,
                         ::testing::Values(31u, 32u, 33u));

// ---- timed simulation functional convergence -------------------------------

class TimedProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TimedProperty, SettlesToFunctionAndRespectsTopoBound) {
  const Circuit circuit = small_circuit(GetParam());
  Rng rng(GetParam() * 131);
  DelayModel delays = DelayModel::zero(circuit);
  double max_gate_delay = 0;
  for (GateId id = 0; id < circuit.num_gates(); ++id) {
    if (circuit.gate(id).type == GateType::kInput) continue;
    delays.gate_delay[id] = 0.5 + rng.next_double();
    max_gate_delay = std::max(max_gate_delay, delays.gate_delay[id]);
  }
  for (int trial = 0; trial < 16; ++trial) {
    std::vector<bool> inputs(circuit.inputs().size());
    for (auto&& bit : inputs) bit = rng.next_bool(0.5);
    std::vector<bool> initial(circuit.num_gates());
    for (std::size_t g = 0; g < initial.size(); ++g)
      initial[g] = rng.next_bool(0.5);
    const auto result = simulate_timed(circuit, delays, initial, inputs);
    const auto reference = simulate(circuit, inputs);
    // A crude structural bound: nothing can settle later than
    // depth * max gate delay.
    const double bound = (circuit.max_level() + 1) * max_gate_delay;
    for (GateId id = 0; id < circuit.num_gates(); ++id) {
      ASSERT_EQ(result.final_values[id], reference[id]);
      ASSERT_LE(result.last_change[id], bound);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimedProperty,
                         ::testing::Values(41u, 42u, 43u, 44u));

}  // namespace
}  // namespace rd
