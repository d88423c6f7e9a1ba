#include "core/classify.h"

#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/classify_dfs.h"
#include "sim/implication.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace rd {

namespace internal {

bool WorkBudget::settle() {
  const std::uint64_t steps = std::exchange(pending_, 0);
  const std::uint64_t total =
      record_.total.fetch_add(steps, std::memory_order_relaxed) + steps;
  if (total > record_.limit) {
    record_.record(AbortReason::kWorkBudget);
    return false;
  }
  if (record_.guard != nullptr && !record_.guard->check(steps)) {
    record_.record(record_.guard->reason());
    return false;
  }
  if (record_.cancelled()) return false;
  rearm(total);
  return true;
}

}  // namespace internal

// One driver for every thread count (DESIGN.md §4, §10).  Each seed is
// one task run by a worker's SeedDfs.  At one thread the tasks run
// inline on the calling thread and each outcome is absorbed as soon as
// its seed finishes, so the next seed is given only the keys the limit
// has left.  Above one thread they run on a pool and the outcomes are
// absorbed after the barrier.  Either way the absorption follows
// canonical seed order, never completion order.
//
// Isolation invariant: every worker owns a private SeedDfs (engine,
// budget, tallies); the only cross-thread state is the shared budget
// record (relaxed atomics) and the per-seed output slots, each written
// by exactly one worker and read only after the pool barrier.
ClassifyResult classify_paths(const Circuit& circuit,
                              const ClassifyOptions& options) {
  Stopwatch watch;
  const std::size_t num_threads =
      ThreadPool::resolve_num_threads(options.num_threads);
  const std::vector<internal::ClassifySeed> seeds =
      internal::enumerate_seeds(circuit);

  // Compiled once on the calling thread (or taken pre-built from
  // options.compiled — the serve layer's cache), then shared read-only
  // by every worker's engine.
  std::unique_ptr<const CompiledCircuit> owned_compiled;
  const CompiledCircuit& compiled =
      *internal::resolve_compiled(circuit, options, owned_compiled);

  internal::WorkBudget::Record budget(options.work_limit, options.guard);
  // One driver per worker, built when the worker takes its first seed.
  std::vector<std::unique_ptr<internal::SeedDfs>> workers(num_threads);
  const auto worker = [&](std::size_t index) -> internal::SeedDfs& {
    if (!workers[index])
      workers[index] =
          std::make_unique<internal::SeedDfs>(compiled, options, budget);
    return *workers[index];
  };

  ClassifyResult result;
  const auto absorb = [&](const internal::SeedOutcome& outcome) {
    result.kept_paths += outcome.kept_paths;
    result.work += outcome.work;
    for (std::size_t k = 0; k < outcome.keys.size(); ++k) {
      if (result.kept_keys.size() >= options.collect_paths_limit) break;
      result.kept_keys.push_back(outcome.keys.key(k));
    }
  };

  std::vector<internal::SeedOutcome> outcomes;
  std::vector<WorkerStats> pool_stats(num_threads);
  try {
    if (num_threads == 1) {
      internal::SeedDfs& dfs = worker(0);
      for (std::size_t i = 0; i < seeds.size() && !budget.cancelled(); ++i) {
        internal::SeedOutcome outcome = dfs.run_seed(
            seeds[i], options.collect_paths_limit - result.kept_keys.size());
        absorb(outcome);
        // Hand the arena back so the next seed appends into its
        // already-reserved capacity instead of growing a fresh one.
        dfs.recycle(std::move(outcome.keys));
        dfs.flush();
      }
    } else {
      // Task index i == seed index i; ThreadPool::run guarantees each
      // runs exactly once.  Workers are indexed by the pool worker id,
      // so they line up with the WorkerStats run() returns.
      outcomes.resize(seeds.size());
      std::vector<std::function<void()>> tasks;
      tasks.reserve(seeds.size());
      for (std::size_t i = 0; i < seeds.size(); ++i) {
        tasks.push_back([&, i] {
          if (budget.cancelled()) return;
          internal::SeedDfs& dfs = worker(ThreadPool::current_worker_index());
          outcomes[i] = dfs.run_seed(seeds[i], options.collect_paths_limit);
          dfs.flush();
        });
      }
      pool_stats = ThreadPool(num_threads).run(tasks);
    }
  } catch (const GuardTrippedError& error) {
    // A throwing guard hook (fault injection) unwinds here — from the
    // pool only after it has quiesced; keep whatever seeds finished
    // before the throw.
    budget.record(error.reason());
  }
  for (const internal::SeedOutcome& outcome : outcomes) absorb(outcome);
  result.completed = !budget.cancelled();
  result.abort_reason = budget.reason.load(std::memory_order_relaxed);

  if (options.collect_lead_counts)
    result.kept_controlling_per_lead.assign(circuit.num_leads(), 0);
  if (internal::replay_eligible(options, compiled)) result.memo = MemoStats{};
  for (const auto& dfs : workers) {
    if (!dfs) continue;
    for (std::size_t lead = 0; lead < dfs->lead_counts().size(); ++lead)
      result.kept_controlling_per_lead[lead] += dfs->lead_counts()[lead];
    result.implication.merge(dfs->implication_stats());
    if (result.memo) result.memo->merge(*dfs->memo_stats());
  }
  if (num_threads > 1) {
    result.worker_stats.resize(num_threads);
    for (std::size_t w = 0; w < num_threads; ++w) {
      result.worker_stats[w].seeds = pool_stats[w].tasks;
      result.worker_stats[w].steals = pool_stats[w].steals;
      result.worker_stats[w].busy_seconds = pool_stats[w].busy_seconds;
      result.worker_stats[w].work = workers[w] ? workers[w]->work() : 0;
    }
  }

  internal::finish_classify_result(circuit, &result);
  result.wall_seconds = watch.elapsed_seconds();
  return result;
}

bool path_survives_local_implications(const Circuit& circuit,
                                      const LogicalPath& path,
                                      Criterion criterion,
                                      const InputSort* sort) {
  if (!is_valid_path(circuit, path.path))
    throw std::invalid_argument("malformed path");
  ImplicationEngine engine(circuit);
  return for_each_path_condition(
      circuit, path, criterion, sort, [&](GateId gate, bool value) {
        return engine.assign(gate, to_value3(value));
      });
}

}  // namespace rd
