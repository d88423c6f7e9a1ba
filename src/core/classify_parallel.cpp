// Parallel classification engine: shards the implicit-enumeration DFS
// by seed (DESIGN.md §10).  Every (primary input, final value, first
// fanout lead) seed is one pool task, run by the same SeedDfs hot loop
// as the serial engine; the per-seed outcomes are merged in canonical
// seed order, so the deterministic ClassifyResult fields are
// bit-identical to the serial engine at every thread count.
//
// Isolation invariant: every worker owns a private ImplicationEngine
// (inside its SeedDfs); the only cross-thread state is the shared work
// budget (relaxed atomics) and the per-seed/per-worker output slots,
// each written by exactly one worker and read only after the pool
// barrier.
#include <functional>
#include <memory>

#include "core/classify.h"
#include "core/classify_dfs.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace rd {

ClassifyResult classify_paths_parallel(const Circuit& circuit,
                                       const ClassifyOptions& options) {
  Stopwatch watch;
  const std::size_t num_threads =
      ThreadPool::resolve_num_threads(options.num_threads);
  const std::vector<internal::ClassifySeed> seeds =
      internal::enumerate_seeds(circuit);

  // Compiled once on the calling thread (or taken pre-built from
  // options.compiled — the serve layer's cache), then shared read-only
  // by every worker's engine — the CSR arrays and side-input tables
  // are immutable after construction.
  std::unique_ptr<const CompiledCircuit> owned_compiled;
  const CompiledCircuit& compiled =
      *internal::resolve_compiled(circuit, options, owned_compiled);

  using Dfs = internal::SeedDfs<internal::SharedBudget>;
  internal::SharedBudget::Shared shared_budget(options.work_limit,
                                               options.guard);
  struct WorkerState {
    std::unique_ptr<internal::SharedBudget> budget;
    std::unique_ptr<Dfs> dfs;
    std::vector<std::uint64_t> lead_counts;
    std::uint64_t work = 0;
  };
  std::vector<WorkerState> workers(num_threads);
  std::vector<internal::SeedOutcome> outcomes(seeds.size());
  std::vector<WorkerStats> pool_stats(num_threads);

  // Task index i == seed index i; ThreadPool::run guarantees each runs
  // exactly once.  WorkerState slots are indexed by the pool worker id
  // so they line up with the WorkerStats run() returns.
  std::vector<std::function<void()>> tasks;
  tasks.reserve(seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    tasks.push_back([&, i] {
      if (shared_budget.cancelled.load(std::memory_order_relaxed)) return;
      WorkerState& state = workers[ThreadPool::current_worker_index()];
      if (!state.dfs) {
        state.budget = std::make_unique<internal::SharedBudget>(shared_budget);
        if (options.collect_lead_counts)
          state.lead_counts.assign(circuit.num_leads(), 0);
        state.dfs = std::make_unique<Dfs>(
            compiled, options, *state.budget,
            options.collect_lead_counts ? &state.lead_counts : nullptr);
      }
      outcomes[i] = state.dfs->run_seed(seeds[i], options.collect_paths_limit);
      state.work += outcomes[i].work;
      state.budget->flush();
    });
  }
  try {
    pool_stats = ThreadPool(num_threads).run(tasks);
  } catch (const GuardTrippedError& error) {
    // Rethrown by the pool after quiescing; record the typed cause and
    // merge whatever seeds completed before the batch drained.
    shared_budget.record(error.reason());
  }

  // ---- Deterministic merge, in canonical seed order ----
  ClassifyResult result;
  for (const internal::SeedOutcome& outcome : outcomes) {
    result.kept_paths += outcome.kept_paths;
    result.work += outcome.work;
    if (outcome.exhausted) result.completed = false;
    for (std::size_t k = 0; k < outcome.keys.size(); ++k) {
      if (result.kept_keys.size() >= options.collect_paths_limit) break;
      result.kept_keys.push_back(outcome.keys.key(k));
    }
  }
  if (shared_budget.cancelled.load(std::memory_order_relaxed))
    result.completed = false;
  if (!result.completed) {
    result.abort_reason = shared_budget.abort_reason();
    // Seeds can exhaust between the trip and the cancel broadcast
    // without the shared record (pre-guard behavior); default those to
    // the work budget.
    if (result.abort_reason == AbortReason::kNone)
      result.abort_reason = AbortReason::kWorkBudget;
  }
  if (options.collect_lead_counts)
    result.kept_controlling_per_lead.assign(circuit.num_leads(), 0);
  for (const WorkerState& state : workers)
    for (std::size_t lead = 0; lead < state.lead_counts.size(); ++lead)
      result.kept_controlling_per_lead[lead] += state.lead_counts[lead];
  for (const WorkerState& state : workers)
    if (state.dfs) result.implication.merge(state.dfs->implication_stats());
  if (internal::replay_eligible(options, compiled)) {
    result.memo = MemoStats{};
    for (const WorkerState& state : workers)
      if (state.dfs) result.memo->merge(*state.dfs->memo_stats());
  }

  result.worker_stats.resize(num_threads);
  for (std::size_t w = 0; w < num_threads; ++w) {
    result.worker_stats[w].seeds = pool_stats[w].tasks;
    result.worker_stats[w].steals = pool_stats[w].steals;
    result.worker_stats[w].busy_seconds = pool_stats[w].busy_seconds;
    result.worker_stats[w].work = workers[w].work;
  }

  internal::finish_classify_result(circuit, &result);
  result.wall_seconds = watch.elapsed_seconds();
  return result;
}

}  // namespace rd
