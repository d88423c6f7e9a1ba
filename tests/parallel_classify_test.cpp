// Determinism test harness for the classification driver across thread
// counts.
//
// classify_paths runs one task per seed, inline at one thread and on a
// pool above it, and absorbs per-seed outcomes in canonical seed order,
// so every deterministic ClassifyResult field must be *bit-identical*
// at any thread count.  This harness checks that differentially (one
// thread against the frozen reference, then 2, 4 and 8 threads against
// one) across generated ISCAS-like and (synthesized) PLA-like circuits
// and all three sensitization criteria; pins golden counts for the
// checked-in data/ circuits so a merge-order bug fails loudly; and
// exercises the shared work-budget abort semantics and the thread pool
// itself.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/classify.h"
#include "core/heuristics.h"
#include "core/input_sort.h"
#include "gen/examples.h"
#include "gen/iscas_like.h"
#include "gen/pla_like.h"
#include "io/bench_io.h"
#include "synth/synth.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace rd {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 4, 8};
constexpr std::size_t kPoolThreadCounts[] = {2, 4, 8};

ClassifyResult classify_at(const Circuit& circuit, ClassifyOptions options,
                           std::size_t threads) {
  options.num_threads = threads;
  return classify_paths(circuit, options);
}

/// Every deterministic field of ClassifyResult must match exactly
/// (worker_stats and wall_seconds are observability-only and excluded).
void expect_identical(const ClassifyResult& serial,
                      const ClassifyResult& parallel,
                      const std::string& label) {
  EXPECT_EQ(serial.kept_paths, parallel.kept_paths) << label;
  EXPECT_EQ(serial.total_logical, parallel.total_logical) << label;
  EXPECT_EQ(serial.rd_paths, parallel.rd_paths) << label;
  EXPECT_EQ(serial.rd_percent, parallel.rd_percent) << label;
  EXPECT_EQ(serial.completed, parallel.completed) << label;
  EXPECT_EQ(serial.work, parallel.work) << label;
  EXPECT_EQ(serial.kept_controlling_per_lead,
            parallel.kept_controlling_per_lead)
      << label;
  EXPECT_EQ(serial.kept_keys, parallel.kept_keys) << label;
}

std::vector<Circuit> differential_circuits() {
  std::vector<Circuit> circuits;
  circuits.push_back(paper_example_circuit());
  circuits.push_back(c17());
  for (std::uint64_t seed : {101u, 102u, 103u}) {
    IscasProfile profile;
    profile.name = "par_iscas" + std::to_string(seed);
    profile.num_inputs = 8;
    profile.num_outputs = 4;
    profile.num_gates = 36;
    profile.num_levels = 6;
    profile.xor_fraction = seed % 2 ? 0.2 : 0.0;
    profile.seed = seed;
    circuits.push_back(make_iscas_like(profile));
  }
  for (std::uint64_t seed : {201u, 202u}) {
    PlaProfile profile;
    profile.name = "par_pla" + std::to_string(seed);
    profile.num_inputs = 7;
    profile.num_outputs = 3;
    profile.num_cubes = 14;
    profile.seed = seed;
    circuits.push_back(synthesize_multilevel(make_pla_like(profile)));
  }
  return circuits;
}

TEST(ParallelClassify, BitIdenticalToSerialAcrossThreadCounts) {
  for (const Circuit& circuit : differential_circuits()) {
    const InputSort sort = heuristic1_sort(circuit);
    for (Criterion criterion :
         {Criterion::kFunctionalSensitizable, Criterion::kNonRobust,
          Criterion::kInputSort}) {
      ClassifyOptions options;
      options.criterion = criterion;
      options.sort = criterion == Criterion::kInputSort ? &sort : nullptr;
      options.collect_lead_counts = true;
      options.collect_paths_limit = 1u << 14;
      const std::string label =
          circuit.name() + " criterion " +
          std::to_string(static_cast<int>(criterion));
      const ClassifyResult serial = classify_at(circuit, options, 1);
      expect_identical(classify_paths_reference(circuit, options), serial,
                       label + " reference");
      EXPECT_TRUE(serial.worker_stats.empty());
      for (std::size_t threads : kPoolThreadCounts) {
        const ClassifyResult parallel = classify_at(circuit, options, threads);
        expect_identical(serial, parallel,
                         label + " threads " + std::to_string(threads));
        EXPECT_EQ(parallel.worker_stats.size(), threads);
      }
    }
  }
}

TEST(ParallelClassify, KeptKeyTruncationMatchesSerialOrder) {
  // A collect_paths_limit smaller than the survivor count forces the
  // parallel merge to truncate mid-stream; the surviving prefix must be
  // the serial DFS discovery order, not a completion order.
  for (const Circuit& circuit : differential_circuits()) {
    ClassifyOptions options;
    options.criterion = Criterion::kFunctionalSensitizable;
    options.collect_paths_limit = 7;
    const ClassifyResult serial = classify_at(circuit, options, 1);
    EXPECT_EQ(classify_paths_reference(circuit, options).kept_keys,
              serial.kept_keys)
        << circuit.name() << " reference";
    for (std::size_t threads : kPoolThreadCounts) {
      const ClassifyResult parallel = classify_at(circuit, options, threads);
      EXPECT_EQ(serial.kept_keys, parallel.kept_keys)
          << circuit.name() << " threads " << threads;
    }
  }
}

TEST(ParallelClassify, RepeatedParallelRunsAreIdentical) {
  // Scheduling varies run to run; results must not.
  const Circuit circuit = differential_circuits()[2];
  ClassifyOptions options;
  options.criterion = Criterion::kNonRobust;
  options.collect_lead_counts = true;
  options.collect_paths_limit = 1u << 14;
  options.num_threads = 4;
  const ClassifyResult first = classify_paths(circuit, options);
  for (int run = 0; run < 3; ++run) {
    const ClassifyResult again = classify_paths(circuit, options);
    expect_identical(first, again, "repeat run " + std::to_string(run));
  }
}

TEST(ParallelClassify, DispatchFollowsNumThreads) {
  const Circuit circuit = c17();
  ClassifyOptions options;
  options.num_threads = 1;
  EXPECT_TRUE(classify_paths(circuit, options).worker_stats.empty());
  options.num_threads = 2;
  EXPECT_EQ(classify_paths(circuit, options).worker_stats.size(), 2u);
}

TEST(ParallelClassify, WorkerStatsCoverEverySeed) {
  // One pool task per canonical seed: the workers' seed counts add up
  // to the seed count and their work to the run's work.
  for (const char* name : {"c432", "c1355"}) {
    const Circuit circuit = make_benchmark(name);
    std::uint64_t num_seeds = 0;
    for (const GateId pi : circuit.inputs())
      num_seeds += 2 * circuit.gate(pi).fanout_leads.size();
    for (const std::size_t threads : {2u, 4u, 8u}) {
      ClassifyOptions options;
      options.num_threads = threads;
      const ClassifyResult result = classify_paths(circuit, options);
      ASSERT_TRUE(result.completed);
      std::uint64_t seeds = 0;
      std::uint64_t work = 0;
      for (const ClassifyWorkerStats& worker : result.worker_stats) {
        seeds += worker.seeds;
        work += worker.work;
      }
      EXPECT_EQ(seeds, num_seeds) << name << " threads " << threads;
      EXPECT_EQ(work, result.work) << name << " threads " << threads;
    }
  }
}

TEST(ParallelClassify, Heuristic2MatchesSerialForSameRngSeed) {
  // The full Heuristic 2 pipeline — the two pre-runs feeding the
  // sort, then the final classification — must be invariant under the
  // engine choice when the tie-breaker RNG seed is fixed.
  for (const Circuit& circuit : differential_circuits()) {
    Rng serial_rng(7);
    const RdIdentification serial =
        identify_rd_heuristic2(circuit, ClassifyOptions{}, &serial_rng);
    for (std::size_t threads : {2u, 4u}) {
      ClassifyOptions base;
      base.num_threads = threads;
      Rng parallel_rng(7);
      const RdIdentification parallel =
          identify_rd_heuristic2(circuit, base, &parallel_rng);
      EXPECT_EQ(serial.classify.kept_paths, parallel.classify.kept_paths)
          << circuit.name() << " threads " << threads;
      EXPECT_EQ(serial.classify.rd_paths, parallel.classify.rd_paths)
          << circuit.name() << " threads " << threads;
    }
  }
}

// ---- golden regression: checked-in data circuits -------------------------

struct Golden {
  const char* path;
  Criterion criterion;
  std::uint64_t kept;
  const char* rd;
  const char* total;
  std::uint64_t work;
};

TEST(ParallelClassify, GoldenCountsOnDataCircuits) {
  // Pinned from the one-thread run; any merge-order or sharding bug at
  // any thread count fails this loudly.  data/c17.bench has no RD paths
  // (all 22 logical paths survive every criterion); the paper's example
  // keeps 5 of 8 under the non-robust criterion.
  const Golden goldens[] = {
      {"data/c17.bench", Criterion::kFunctionalSensitizable, 22, "0", "22", 64},
      {"data/c17.bench", Criterion::kNonRobust, 22, "0", "22", 64},
      {"data/c17.bench", Criterion::kInputSort, 22, "0", "22", 64},
      {"data/paper_example.bench", Criterion::kFunctionalSensitizable, 8, "0",
       "8", 26},
      {"data/paper_example.bench", Criterion::kNonRobust, 5, "3", "8", 20},
      {"data/paper_example.bench", Criterion::kInputSort, 8, "0", "8", 26},
  };
  for (const Golden& golden : goldens) {
    const Circuit circuit = read_bench_file(golden.path);
    const InputSort natural = InputSort::natural(circuit);
    ClassifyOptions options;
    options.criterion = golden.criterion;
    options.sort =
        golden.criterion == Criterion::kInputSort ? &natural : nullptr;
    const std::string label =
        std::string(golden.path) + " criterion " +
        std::to_string(static_cast<int>(golden.criterion));

    const ClassifyResult serial = classify_at(circuit, options, 1);
    EXPECT_TRUE(serial.completed) << label;
    EXPECT_EQ(serial.kept_paths, golden.kept) << label;
    EXPECT_EQ(serial.rd_paths.to_decimal(), golden.rd) << label;
    EXPECT_EQ(serial.total_logical.to_decimal(), golden.total) << label;
    EXPECT_EQ(serial.work, golden.work) << label;
    expect_identical(classify_paths_reference(circuit, options), serial,
                     label + " reference");

    for (std::size_t threads : kPoolThreadCounts) {
      const ClassifyResult parallel = classify_at(circuit, options, threads);
      EXPECT_TRUE(parallel.completed) << label;
      EXPECT_EQ(parallel.kept_paths, golden.kept)
          << label << " threads " << threads;
      EXPECT_EQ(parallel.rd_paths.to_decimal(), golden.rd)
          << label << " threads " << threads;
      EXPECT_EQ(parallel.work, golden.work)
          << label << " threads " << threads;
    }
  }
}

// ---- work-limit semantics -------------------------------------------------

TEST(ParallelClassify, WorkLimitAbortsAllEngines) {
  IscasProfile profile;
  profile.name = "par_limit";
  profile.num_inputs = 10;
  profile.num_outputs = 5;
  profile.num_gates = 60;
  profile.num_levels = 8;
  profile.seed = 303;
  const Circuit circuit = make_iscas_like(profile);

  ClassifyOptions options;
  options.criterion = Criterion::kFunctionalSensitizable;
  options.work_limit = 25;  // far below the circuit's full DFS work
  const ClassifyResult serial = classify_at(circuit, options, 1);
  ASSERT_FALSE(serial.completed);
  // Aborted runs leave the rd_* fields unpopulated.
  EXPECT_EQ(serial.rd_paths, BigUint(0));
  EXPECT_EQ(serial.rd_percent, 0.0);
  // One thread stops on the exact step the reference stops on.
  expect_identical(classify_paths_reference(circuit, options), serial,
                   "reference");

  for (std::size_t threads : kPoolThreadCounts) {
    const ClassifyResult parallel = classify_at(circuit, options, threads);
    EXPECT_FALSE(parallel.completed) << threads;
    EXPECT_EQ(parallel.rd_paths, BigUint(0)) << threads;
    // Cooperative cancellation: every worker stops within one settle
    // stride of the limit being crossed, so the total work performed is
    // bounded, not the full DFS.
    EXPECT_LT(parallel.work, std::uint64_t{25} + 8 * 600) << threads;
  }
}

TEST(ParallelClassify, WorkLimitBoundaryIsExact) {
  // completed must flip exactly at the full DFS step count, at every
  // thread count: the verdict depends only on the
  // thread-count-independent work total.
  const Circuit circuit = c17();
  ClassifyOptions options;
  options.criterion = Criterion::kFunctionalSensitizable;
  const std::uint64_t full_work = classify_at(circuit, options, 1).work;
  ASSERT_GT(full_work, 0u);
  EXPECT_EQ(classify_paths_reference(circuit, options).work, full_work);

  for (const bool enough : {true, false}) {
    options.work_limit = enough ? full_work : full_work - 1;
    EXPECT_EQ(classify_at(circuit, options, 1).completed, enough);
    for (std::size_t threads : kPoolThreadCounts) {
      EXPECT_EQ(classify_at(circuit, options, threads).completed, enough)
          << "limit " << options.work_limit << " threads " << threads;
    }
  }
}

// ---- execution-guard abort semantics --------------------------------------

TEST(ParallelClassify, PreExpiredDeadlineAbortsTyped) {
  const Circuit circuit = c17();
  for (std::size_t threads : {1u, 2u, 4u}) {
    ExecGuardOptions guard_options;
    guard_options.deadline_seconds = 1e-9;
    ExecGuard guard(guard_options);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ClassifyOptions options;
    options.num_threads = threads;
    options.guard = &guard;
    const ClassifyResult result = classify_paths(circuit, options);
    EXPECT_FALSE(result.completed) << threads;
    EXPECT_EQ(result.abort_reason, AbortReason::kDeadline) << threads;
    // Aborted runs leave rd_* unpopulated, like a work-limit abort.
    EXPECT_EQ(result.rd_paths, BigUint(0)) << threads;
  }
}

TEST(ParallelClassify, InjectedCancelAbortsAtEveryThreadCount) {
  // A cancellation request arriving mid-run (deterministically, at the
  // 5th guard check — standing in for a SIGINT) must abort every
  // engine cooperatively with the typed kCancelled cause.
  const Circuit circuit = differential_circuits()[2];
  for (std::size_t threads : {1u, 2u, 4u}) {
    CancellationToken cancel;
    ExecGuardOptions guard_options;
    guard_options.cancel = &cancel;
    ExecGuard guard(guard_options);
    guard.inject_at_check(5, [&cancel] { cancel.request(); });
    ClassifyOptions options;
    options.num_threads = threads;
    options.guard = &guard;
    const ClassifyResult result = classify_paths(circuit, options);
    EXPECT_FALSE(result.completed) << threads;
    EXPECT_EQ(result.abort_reason, AbortReason::kCancelled) << threads;
  }
}

TEST(ParallelClassify, InjectedWorkerThrowBecomesTypedAbort) {
  // A guard hook that *throws* inside a worker thread exercises the
  // pool's exception path: the batch drains, the error is rethrown on
  // the orchestrating thread, and the run converts it into a typed
  // aborted result instead of dying on std::terminate.
  const Circuit circuit = differential_circuits()[2];
  ClassifyOptions options;
  options.criterion = Criterion::kFunctionalSensitizable;
  for (std::size_t threads : {2u, 4u}) {
    ExecGuard guard;
    guard.inject_at_check(10, [] {
      throw GuardTrippedError(AbortReason::kMemory);
    });
    options.num_threads = threads;
    options.guard = &guard;
    const ClassifyResult aborted = classify_paths(circuit, options);
    EXPECT_FALSE(aborted.completed) << threads;
    EXPECT_EQ(aborted.abort_reason, AbortReason::kMemory) << threads;

    // The engine (and a fresh pool) stays fully usable afterwards: an
    // unguarded rerun completes and matches the serial result.
    options.guard = nullptr;
    const ClassifyResult rerun = classify_paths(circuit, options);
    EXPECT_TRUE(rerun.completed) << threads;
    ClassifyOptions serial_options = options;
    serial_options.num_threads = 1;
    expect_identical(classify_paths(circuit, serial_options), rerun,
                     "post-throw rerun threads " + std::to_string(threads));
  }
}

TEST(ParallelClassify, UntrippedGuardBitIdenticalToNoGuard) {
  // Attaching a guard that never trips must not perturb any
  // deterministic field at any thread count.
  for (const Circuit& circuit : differential_circuits()) {
    ClassifyOptions options;
    options.criterion = Criterion::kFunctionalSensitizable;
    options.collect_lead_counts = true;
    options.collect_paths_limit = 1u << 14;
    const ClassifyResult baseline = classify_at(circuit, options, 1);
    for (std::size_t threads : {1u, 2u, 4u}) {
      ExecGuard guard;  // no ceilings
      options.num_threads = threads;
      options.guard = &guard;
      const ClassifyResult guarded = classify_paths(circuit, options);
      expect_identical(baseline, guarded,
                       circuit.name() + " guarded threads " +
                           std::to_string(threads));
      EXPECT_EQ(guarded.abort_reason, AbortReason::kNone);
      options.guard = nullptr;
    }
  }
}

TEST(ParallelClassify, KeyArenaMemoryIsReleased) {
  // Collected keys charge their arenas' growth to the guard.  The run
  // must release that charge once it has absorbed the arenas, or every
  // keyed run leaves memory_used() raised for whatever shares the guard
  // next (a ladder's keyed rerun, the next job of a session).
  const Circuit circuit = make_benchmark("c432");
  for (const std::size_t threads : {1u, 4u}) {
    ClassifyOptions options;
    options.num_threads = threads;
    options.collect_paths_limit = 1u << 12;

    ExecGuard guard;
    options.guard = &guard;
    const std::uint64_t before = guard.memory_used();
    for (int run = 0; run < 2; ++run) {
      const ClassifyResult result = classify_paths(circuit, options);
      ASSERT_TRUE(result.completed) << threads;
      ASSERT_EQ(result.kept_keys.size(), options.collect_paths_limit);
    }
    EXPECT_EQ(guard.memory_used(), before) << "threads " << threads;

    // The charge is taken while the run holds the keys: a one-byte
    // ceiling trips on it, and the charge is still released.
    ExecGuardOptions tight_options;
    tight_options.memory_limit_bytes = 1;
    ExecGuard tight(tight_options);
    options.guard = &tight;
    const ClassifyResult tripped = classify_paths(circuit, options);
    EXPECT_FALSE(tripped.completed) << threads;
    EXPECT_EQ(tripped.abort_reason, AbortReason::kMemory) << threads;
    EXPECT_EQ(tight.memory_used(), 0u) << "threads " << threads;
  }
}

// ---- thread pool ----------------------------------------------------------

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  for (std::size_t threads : kThreadCounts) {
    ThreadPool pool(threads);
    ASSERT_EQ(pool.num_threads(), threads);
    constexpr std::size_t kTasks = 257;  // not a multiple of any pool size
    std::vector<std::atomic<int>> hits(kTasks);
    std::vector<std::function<void()>> tasks;
    for (std::size_t i = 0; i < kTasks; ++i)
      tasks.push_back([&hits, i] { hits[i].fetch_add(1); });
    const std::vector<WorkerStats> stats = pool.run(tasks);
    for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i].load(), 1);
    std::uint64_t total = 0;
    for (const WorkerStats& worker : stats) total += worker.tasks;
    EXPECT_EQ(total, kTasks);
  }
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  std::vector<std::function<void()>> tasks(10, [&] { counter.fetch_add(1); });
  pool.run(tasks);
  pool.run(tasks);
  EXPECT_EQ(counter.load(), 20);
  // Empty batches are legal.
  const auto stats = pool.run({});
  for (const WorkerStats& worker : stats) EXPECT_EQ(worker.tasks, 0u);
}

TEST(ThreadPoolTest, ResolvesZeroToHardwareConcurrency) {
  EXPECT_GE(ThreadPool::resolve_num_threads(0), 1u);
  EXPECT_EQ(ThreadPool::resolve_num_threads(5), 5u);
}

}  // namespace
}  // namespace rd
