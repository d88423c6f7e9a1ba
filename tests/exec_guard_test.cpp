// Unit tests for the shared execution guard: typed abort reasons,
// ceiling semantics (work / memory / deadline / cancellation),
// first-trip-wins recording, and the deterministic fault-injection
// hooks the abort-path tests are built on — and the engines' side of
// the contract: an incomplete result always names its abort reason.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "atpg/testset.h"
#include "cache/eco_classify.h"
#include "core/classify.h"
#include "gen/examples.h"
#include "gen/iscas_like.h"
#include "util/exec_guard.h"

namespace rd {
namespace {

TEST(AbortReason, StableNames) {
  EXPECT_STREQ(abort_reason_name(AbortReason::kNone), "none");
  EXPECT_STREQ(abort_reason_name(AbortReason::kDeadline), "deadline");
  EXPECT_STREQ(abort_reason_name(AbortReason::kWorkBudget), "work_budget");
  EXPECT_STREQ(abort_reason_name(AbortReason::kMemory), "memory");
  EXPECT_STREQ(abort_reason_name(AbortReason::kCancelled), "cancelled");
}

TEST(ExecGuard, NoLimitsNeverTrips) {
  ExecGuard guard;
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(guard.check());
  EXPECT_FALSE(guard.tripped());
  EXPECT_EQ(guard.reason(), AbortReason::kNone);
  EXPECT_EQ(guard.work_used(), 1000u);
  EXPECT_EQ(guard.checks(), 1000u);
}

TEST(ExecGuard, WorkBudgetTrips) {
  ExecGuardOptions options;
  options.work_limit = 10;
  ExecGuard guard(options);
  EXPECT_TRUE(guard.check(4));
  EXPECT_TRUE(guard.check(4));
  EXPECT_FALSE(guard.check(4));  // 12 > 10
  EXPECT_TRUE(guard.tripped());
  EXPECT_EQ(guard.reason(), AbortReason::kWorkBudget);
  // Once tripped, every later check fails with the same reason.
  EXPECT_FALSE(guard.check());
  EXPECT_EQ(guard.reason(), AbortReason::kWorkBudget);
}

TEST(ExecGuard, MemoryCeilingEvaluatedAtCheck) {
  ExecGuardOptions options;
  options.memory_limit_bytes = 100;
  ExecGuard guard(options);
  guard.add_memory(64);
  EXPECT_TRUE(guard.check());
  guard.add_memory(64);
  EXPECT_EQ(guard.memory_used(), 128u);
  EXPECT_FALSE(guard.check());
  EXPECT_EQ(guard.reason(), AbortReason::kMemory);
  // Freeing memory does not untrip a recorded abort.
  guard.sub_memory(128);
  EXPECT_FALSE(guard.check());
  EXPECT_EQ(guard.reason(), AbortReason::kMemory);
}

TEST(ExecGuard, PreExpiredDeadlineTripsOnFirstCheck) {
  ExecGuardOptions options;
  options.deadline_seconds = 1e-9;
  ExecGuard guard(options);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  // The clock is polled on the very first check, so a pre-expired
  // deadline never admits any work.
  EXPECT_FALSE(guard.check());
  EXPECT_EQ(guard.reason(), AbortReason::kDeadline);
  EXPECT_GT(guard.elapsed_seconds(), 0.0);
}

TEST(ExecGuard, CancellationTokenObserved) {
  CancellationToken cancel;
  ExecGuardOptions options;
  options.cancel = &cancel;
  ExecGuard guard(options);
  EXPECT_TRUE(guard.check());
  cancel.request();
  EXPECT_FALSE(guard.check());
  EXPECT_EQ(guard.reason(), AbortReason::kCancelled);
  // Resetting the token does not erase the recorded trip.
  cancel.reset();
  EXPECT_FALSE(guard.check());
  EXPECT_EQ(guard.reason(), AbortReason::kCancelled);
}

TEST(ExecGuard, FirstTripWins) {
  ExecGuard guard;
  guard.trip(AbortReason::kNone);  // ignored
  EXPECT_FALSE(guard.tripped());
  guard.trip(AbortReason::kDeadline);
  guard.trip(AbortReason::kMemory);  // no-op, a cause is recorded
  EXPECT_EQ(guard.reason(), AbortReason::kDeadline);
  EXPECT_FALSE(guard.check());
}

TEST(ExecGuard, InjectTripAtNthCheck) {
  ExecGuard guard;
  guard.inject_trip_at(3, AbortReason::kDeadline);
  EXPECT_TRUE(guard.check());
  EXPECT_TRUE(guard.check());
  EXPECT_FALSE(guard.check());  // the 3rd check (1-based) trips
  EXPECT_EQ(guard.reason(), AbortReason::kDeadline);
}

TEST(ExecGuard, InjectedActionRunsExactlyOnce) {
  ExecGuard guard;
  int runs = 0;
  guard.inject_at_check(2, [&] { ++runs; });
  for (int i = 0; i < 5; ++i) guard.check();
  EXPECT_EQ(runs, 1);
  EXPECT_FALSE(guard.tripped());  // a non-tripping action is benign
}

TEST(ExecGuard, InjectedThrowPropagates) {
  ExecGuard guard;
  guard.inject_at_check(1, [] {
    throw GuardTrippedError(AbortReason::kCancelled);
  });
  try {
    guard.check();
    FAIL() << "expected the injected exception";
  } catch (const GuardTrippedError& error) {
    EXPECT_EQ(error.reason(), AbortReason::kCancelled);
    EXPECT_NE(std::string(error.what()).find("cancelled"),
              std::string::npos);
  }
}

TEST(ExecGuard, SharedAcrossThreadsRecordsOneCause) {
  ExecGuardOptions options;
  options.work_limit = 10000;
  ExecGuard guard(options);
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t)
    workers.emplace_back([&guard] {
      while (guard.check()) {
      }
    });
  for (std::thread& worker : workers) worker.join();
  EXPECT_TRUE(guard.tripped());
  EXPECT_EQ(guard.reason(), AbortReason::kWorkBudget);
  EXPECT_GE(guard.work_used(), 10000u);
}

// ---- !completed implies a named abort_reason, for every engine --------

const AbortReason kTripReasons[] = {AbortReason::kDeadline,
                                    AbortReason::kMemory,
                                    AbortReason::kCancelled,
                                    AbortReason::kWorkBudget};

TEST(AbortInvariant, ClassifyPathsNamesEveryAbort) {
  const Circuit circuit = make_benchmark("c432");
  for (const std::size_t threads : {1u, 4u}) {
    for (const std::uint64_t work_limit : {1u, 100u, 5000u}) {
      ClassifyOptions options;
      options.num_threads = threads;
      options.work_limit = work_limit;
      const ClassifyResult result = classify_paths(circuit, options);
      EXPECT_FALSE(result.completed);
      EXPECT_EQ(result.abort_reason, AbortReason::kWorkBudget)
          << "threads " << threads << " work_limit " << work_limit;
    }
    for (const std::uint64_t trip_at : {1u, 3u, 20u}) {
      for (const AbortReason reason : kTripReasons) {
        ExecGuard guard;
        guard.inject_trip_at(trip_at, reason);
        ClassifyOptions options;
        options.num_threads = threads;
        options.guard = &guard;
        const ClassifyResult result = classify_paths(circuit, options);
        EXPECT_FALSE(result.completed);
        EXPECT_EQ(result.abort_reason, reason)
            << "threads " << threads << " trip_at " << trip_at;
      }
    }
  }
}

TEST(AbortInvariant, ClassifyEcoNamesEveryAbort) {
  const Circuit circuit = make_benchmark("c432");
  for (const std::string spec : {"1", "2", "fus"}) {
    ConeCacheStore store;
    EcoOptions options;
    options.sort_spec = spec;
    options.base.work_limit = 100;
    const EcoResult limited = classify_eco(circuit, store, options);
    EXPECT_FALSE(limited.classify.completed) << spec;
    EXPECT_EQ(limited.classify.abort_reason, AbortReason::kWorkBudget)
        << spec;
    for (const AbortReason reason : kTripReasons) {
      ExecGuard guard;
      guard.inject_trip_at(3, reason);
      EcoOptions guarded;
      guarded.sort_spec = spec;
      guarded.base.guard = &guard;
      ConeCacheStore cold;
      const EcoResult tripped = classify_eco(circuit, cold, guarded);
      EXPECT_FALSE(tripped.classify.completed) << spec;
      EXPECT_EQ(tripped.classify.abort_reason, reason) << spec;
    }
  }
}

TEST(AbortInvariant, GenerateTestSetNamesEveryAbort) {
  const Circuit circuit = c17();
  ClassifyOptions collect;
  collect.collect_paths_limit = 1000;
  std::vector<LogicalPath> paths;
  for (const auto& key : classify_paths(circuit, collect).kept_keys)
    paths.push_back(LogicalPath::from_key(key));
  ASSERT_FALSE(paths.empty());
  for (const AbortReason reason : kTripReasons) {
    ExecGuard guard;
    guard.inject_trip_at(1, reason);
    TestSetOptions options;
    options.guard = &guard;
    const GeneratedTestSet set = generate_test_set(circuit, paths, options);
    EXPECT_FALSE(set.completed);
    EXPECT_EQ(set.abort_reason, reason);
  }
}

}  // namespace
}  // namespace rd
