// Path-prefix-tree layer: the carry-mesh deep generator's closed-form
// structural counts, the pooled key arena, and the seed-sharded
// classifier under mid-subtree aborts.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/classify.h"
#include "gen/carry_mesh.h"
#include "paths/counting.h"
#include "paths/path.h"
#include "paths/prefix_tree.h"
#include "util/biguint.h"
#include "util/exec_guard.h"

namespace rd {
namespace {

BigUint times_pow2(std::uint64_t base, std::size_t exponent) {
  BigUint value(base);
  for (std::size_t i = 0; i < exponent; ++i) value *= 2;
  return value;
}

// ---- carry-mesh structural counts vs the closed forms ---------------------

TEST(CarryMesh, ClosedFormPathCountsAcrossDepths) {
  for (const std::size_t width : {2u, 3u, 4u}) {
    for (const std::size_t depth : {1u, 2u, 4u, 6u, 8u, 10u}) {
      CarryMeshProfile profile;
      profile.width = width;
      profile.depth = depth;
      const Circuit circuit = make_carry_mesh(profile);
      ASSERT_EQ(circuit.inputs().size(), width);
      ASSERT_EQ(circuit.outputs().size(), width);

      // physical = width * 2^depth, logical = twice that.
      const PathCounts counts(circuit);
      EXPECT_EQ(counts.total_physical(), times_pow2(width, depth))
          << "width " << width << " depth " << depth;
      EXPECT_EQ(counts.total_logical(), times_pow2(2 * width, depth));
    }
  }
}

TEST(CarryMesh, EnumerationMatchesCountsAndPathShape) {
  CarryMeshProfile profile;
  profile.width = 3;
  profile.depth = 5;
  const Circuit circuit = make_carry_mesh(profile);
  std::uint64_t enumerated = 0;
  ASSERT_TRUE(enumerate_paths(
      circuit,
      [&](const PhysicalPath& path) {
        ++enumerated;
        EXPECT_TRUE(is_valid_path(circuit, path));
        // depth leads through the mesh plus the lead into the PO.
        EXPECT_EQ(path.leads.size(), profile.depth + 1);
      },
      1u << 16));
  EXPECT_EQ(BigUint(enumerated), PathCounts(circuit).total_physical());
}

// ---- pooled key arena ------------------------------------------------------

TEST(PathKeyArena, AppendRoundTripAndPooledClear) {
  PathKeyArena arena;
  EXPECT_TRUE(arena.empty());
  EXPECT_EQ(arena.size(), 0u);

  arena.append({7, 3, 9}, true);
  arena.append({}, false);
  arena.append({1}, true);
  ASSERT_EQ(arena.size(), 3u);
  EXPECT_EQ(arena.key(0), (std::vector<std::uint32_t>{7, 3, 9, 1}));
  EXPECT_EQ(arena.key(1), (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(arena.key(2), (std::vector<std::uint32_t>{1, 1}));

  // clear() keeps the reserved capacity: re-filling the same keys
  // must not grow the arena's footprint.
  const std::uint64_t reserved = arena.capacity_bytes();
  arena.clear();
  EXPECT_TRUE(arena.empty());
  EXPECT_EQ(arena.capacity_bytes(), reserved);
  arena.append({7, 3, 9}, true);
  EXPECT_EQ(arena.capacity_bytes(), reserved);
  EXPECT_EQ(arena.key(0), (std::vector<std::uint32_t>{7, 3, 9, 1}));
}

// ---- deep-mesh classification: inline / pool / aborts ----------------------

ClassifyOptions mesh_options(std::size_t threads) {
  ClassifyOptions options;
  options.criterion = Criterion::kFunctionalSensitizable;
  options.num_threads = threads;
  options.collect_paths_limit = 1u << 18;
  options.collect_lead_counts = true;
  return options;
}

TEST(PathTreeClassify, MidSubtreeWorkLimitVerdictIsThreadInvariant) {
  CarryMeshProfile profile;
  profile.width = 3;
  profile.depth = 8;
  const Circuit circuit = make_carry_mesh(profile);
  const std::uint64_t full_work =
      classify_paths(circuit, mesh_options(1)).work;
  ASSERT_GT(full_work, 64u);
  EXPECT_EQ(classify_paths_reference(circuit, mesh_options(1)).work,
            full_work);

  // Limits landing inside seed subtrees: the completed verdict and
  // typed reason must match the one-thread run at every thread count
  // (partial counts at the abort point are legitimately unordered).
  for (const std::uint64_t limit :
       {full_work / 2, full_work - 1, full_work}) {
    ClassifyOptions options = mesh_options(1);
    options.work_limit = limit;
    const ClassifyResult serial = classify_paths(circuit, options);
    ASSERT_EQ(serial.completed, limit >= full_work);
    for (const std::size_t threads : {2u, 4u, 8u}) {
      options.num_threads = threads;
      const ClassifyResult parallel = classify_paths(circuit, options);
      EXPECT_EQ(parallel.completed, serial.completed)
          << "limit " << limit << " threads " << threads;
      EXPECT_EQ(parallel.abort_reason, serial.abort_reason);
    }
  }
}

TEST(PathTreeClassify, InjectedGuardTripMidSubtreeIsTyped) {
  CarryMeshProfile profile;
  profile.width = 3;
  profile.depth = 8;
  const Circuit circuit = make_carry_mesh(profile);
  for (const std::size_t threads : {1u, 2u, 4u}) {
    // Every seed polls the guard at least once, so half the checks of
    // an untripped run is a check inside the run (on a pool worker
    // above one thread).
    ExecGuard untripped;
    ClassifyOptions options = mesh_options(threads);
    options.guard = &untripped;
    ASSERT_TRUE(classify_paths(circuit, options).completed);
    const std::uint64_t trip_at = untripped.checks() / 2;
    ASSERT_GE(trip_at, 1u);

    ExecGuard guard;
    guard.inject_at_check(trip_at, [] {
      throw GuardTrippedError(AbortReason::kMemory);
    });
    options.guard = &guard;
    const ClassifyResult result = classify_paths(circuit, options);
    EXPECT_FALSE(result.completed) << "threads " << threads;
    EXPECT_EQ(result.abort_reason, AbortReason::kMemory);
  }
}

}  // namespace
}  // namespace rd
