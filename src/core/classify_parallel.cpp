// Parallel classification engine: shards the implicit-enumeration DFS
// at *subtree granularity* over the shared path-prefix tree
// (DESIGN.md §10) and merges the per-node outcomes in canonical
// discovery order, so the deterministic ClassifyResult fields are
// bit-identical to the serial engine at every thread count.
//
// Two phases:
//
//   1. a shallow frontier expansion on the calling thread walks every
//      seed in canonical order, exactly like the serial DFS, but cuts
//      each branch at a structurally chosen split depth: a live node
//      there becomes a work item (the subtree root's lead prefix);
//      survivors found above the cut and frontier nodes are logged in
//      one ordered event stream, the serial discovery order;
//   2. the work items fan out over the work-stealing pool; a worker
//      adopting an item replays its prefix charge-free (rollback to
//      the longest common prefix with the trail it already holds,
//      assert the divergent suffix, disown the charges — phase 1
//      already charged every prefix edge), then owns the subtree and
//      charges it normally.
//
// Seed sharding (one item per first fanout lead) is the special case
// split_depth == 1; the structural width scan picks the shallowest
// depth wide enough to feed the pool, so deep narrow circuits — the
// path-exponential regime where per-seed sharding degenerates to a
// handful of items — still load-balance.
//
// Isolation invariant: every worker owns a private ImplicationEngine
// (inside its SeedDfs); the only cross-thread state is the shared work
// budget (relaxed atomics) and the per-item/per-worker output slots,
// each written by exactly one worker and read only after the pool
// barrier.
#include <algorithm>
#include <functional>
#include <memory>

#include "core/classify.h"
#include "core/classify_dfs.h"
#include "paths/prefix_tree.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace rd {

namespace {

// The split-depth scan stops here: deeper frontiers than this never
// pay (the prefix replay a thief runs is O(depth)), and the width DP
// is O(gates) per level.
constexpr std::size_t kMaxSplitDepth = 64;

// Target number of work items: enough headroom over the thread count
// for the stealing scheduler to balance uneven subtrees.
std::uint64_t item_target(std::size_t num_threads) {
  return std::max<std::uint64_t>(64, 16 * num_threads);
}

}  // namespace

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

  const std::size_t split_depth = choose_split_depth(
      prefix_tree_widths(circuit, kMaxSplitDepth), item_target(num_threads));

  // Phase 1 runs the frontier-cut instantiation; phase-2 workers run
  // the plain one (same hot loop as the serial engine).  Outcomes are
  // the shared internal::SeedOutcome, so the merge mixes them freely.
  using Dfs = internal::SeedDfs<internal::SharedBudget>;
  using FrontierDfs = internal::SeedDfs<internal::SharedBudget, true>;
  internal::SharedBudget::Shared shared_budget(options.work_limit,
                                               options.guard);

  // ---- Phase 1: frontier expansion (calling thread) ----
  // One work item = one live prefix-tree node at the split depth; the
  // prefixes live in one flat pool.  `events` records the serial
  // discovery order the merge must reproduce: false = a survivor above
  // the cut (the next key of the current seed's arena), true = the
  // next work item's whole subtree.
  struct SubtreeItem {
    std::uint32_t seed = 0;   // canonical seed index
    std::uint32_t begin = 0;  // prefix range into prefix_pool
    std::uint32_t length = 0;
  };
  std::vector<SubtreeItem> items;
  std::vector<LeadId> prefix_pool;
  std::vector<std::uint8_t> events;
  std::vector<Dfs::SeedOutcome> phase1(seeds.size());
  std::vector<std::size_t> event_end(seeds.size(), 0);

  std::vector<std::uint64_t> root_lead_counts;
  if (options.collect_lead_counts)
    root_lead_counts.assign(circuit.num_leads(), 0);

  internal::SharedBudget root_budget(shared_budget);
  FrontierDfs root_dfs(compiled, options, root_budget,
                       options.collect_lead_counts ? &root_lead_counts
                                                   : nullptr);
  std::uint32_t current_seed = 0;
  std::uint64_t root_work = 0;
  root_dfs.set_frontier_cut(
      split_depth,
      [&](const std::vector<LeadId>& prefix) {
        items.push_back(
            SubtreeItem{current_seed,
                        static_cast<std::uint32_t>(prefix_pool.size()),
                        static_cast<std::uint32_t>(prefix.size())});
        prefix_pool.insert(prefix_pool.end(), prefix.begin(), prefix.end());
        events.push_back(1);
      },
      [&] { events.push_back(0); });
  std::size_t seeds_expanded = 0;
  try {
    for (; seeds_expanded < seeds.size(); ++seeds_expanded) {
      current_seed = static_cast<std::uint32_t>(seeds_expanded);
      phase1[seeds_expanded] =
          root_dfs.run_seed(seeds[seeds_expanded],
                            options.collect_paths_limit);
      root_work += phase1[seeds_expanded].work;
      event_end[seeds_expanded] = events.size();
      root_budget.flush();
      if (phase1[seeds_expanded].exhausted ||
          shared_budget.cancelled.load(std::memory_order_relaxed)) {
        ++seeds_expanded;
        break;
      }
    }
  } catch (const GuardTrippedError& error) {
    // A throwing guard hook (fault injection) mid-expansion: record
    // the typed cause; whatever the stream holds so far merges below
    // (the partially expanded seed's events fall into the next fill).
    shared_budget.record(error.reason());
  }
  for (std::size_t i = seeds_expanded; i < seeds.size(); ++i)
    event_end[i] = events.size();

  // ---- Phase 2: subtree fan-out over the pool ----
  struct WorkerState {
    std::unique_ptr<internal::SharedBudget> budget;
    std::unique_ptr<Dfs> dfs;
    std::vector<std::uint64_t> lead_counts;
    std::uint64_t work = 0;
  };
  std::vector<WorkerState> workers(num_threads);
  std::vector<Dfs::SeedOutcome> outcomes(items.size());
  std::vector<WorkerStats> pool_stats(num_threads);

  if (!items.empty() &&
      !shared_budget.cancelled.load(std::memory_order_relaxed)) {
    // Task index i == item index i; ThreadPool::run guarantees each
    // runs exactly once.  WorkerState slots are indexed by the pool
    // worker id so they line up with the WorkerStats run() returns.
    std::vector<std::function<void()>> tasks;
    tasks.reserve(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      tasks.push_back([&, i] {
        WorkerState& state = workers[ThreadPool::current_worker_index()];
        if (!state.dfs) {
          state.budget =
              std::make_unique<internal::SharedBudget>(shared_budget);
          if (options.collect_lead_counts)
            state.lead_counts.assign(circuit.num_leads(), 0);
          state.dfs = std::make_unique<Dfs>(
              compiled, options, *state.budget,
              options.collect_lead_counts ? &state.lead_counts : nullptr);
        }
        const SubtreeItem& item = items[i];
        outcomes[i] = state.dfs->run_subtree(
            seeds[item.seed], prefix_pool.data() + item.begin, item.length,
            options.collect_paths_limit);
        state.work += outcomes[i].work;
        state.budget->flush();
      });
    }
    try {
      pool_stats = ThreadPool(num_threads).run(tasks);
    } catch (const GuardTrippedError& error) {
      // Rethrown by the pool after quiescing; record the typed cause
      // and merge whatever items completed before the batch drained.
      shared_budget.record(error.reason());
    }
  }

  // ---- Deterministic merge, replaying the discovery-order stream ----
  ClassifyResult result;
  if (options.collect_lead_counts)
    result.kept_controlling_per_lead.assign(circuit.num_leads(), 0);
  std::size_t item_cursor = 0;
  std::size_t event_cursor = 0;
  for (std::size_t s = 0; s < seeds.size(); ++s) {
    Dfs::SeedOutcome& above = phase1[s];
    result.kept_paths += above.kept_paths;
    result.work += above.work;
    if (above.exhausted) result.completed = false;
    std::size_t arena_cursor = 0;
    for (; event_cursor < event_end[s]; ++event_cursor) {
      if (events[event_cursor] == 0) {
        if (result.kept_keys.size() < options.collect_paths_limit &&
            arena_cursor < above.keys.size())
          result.kept_keys.push_back(above.keys.key(arena_cursor));
        ++arena_cursor;
      } else {
        Dfs::SeedOutcome& sub = outcomes[item_cursor++];
        result.kept_paths += sub.kept_paths;
        result.work += sub.work;
        if (sub.exhausted) result.completed = false;
        for (std::size_t k = 0; k < sub.keys.size(); ++k) {
          if (result.kept_keys.size() >= options.collect_paths_limit) break;
          result.kept_keys.push_back(sub.keys.key(k));
        }
      }
    }
  }
  if (shared_budget.cancelled.load(std::memory_order_relaxed))
    result.completed = false;
  if (!result.completed) {
    result.abort_reason = shared_budget.abort_reason();
    // Subtrees can exhaust between the trip and the cancel broadcast
    // without the shared record (pre-guard behavior); default those to
    // the work budget.
    if (result.abort_reason == AbortReason::kNone)
      result.abort_reason = AbortReason::kWorkBudget;
  }
  for (std::size_t lead = 0; lead < root_lead_counts.size(); ++lead)
    result.kept_controlling_per_lead[lead] += root_lead_counts[lead];
  for (const WorkerState& state : workers)
    for (std::size_t lead = 0; lead < state.lead_counts.size(); ++lead)
      result.kept_controlling_per_lead[lead] += state.lead_counts[lead];
  result.implication = root_dfs.implication_stats();
  for (const WorkerState& state : workers)
    if (state.dfs) result.implication.merge(state.dfs->implication_stats());
  if (internal::replay_eligible(options, compiled)) {
    result.memo = MemoStats{};
    for (const WorkerState& state : workers)
      if (state.dfs) result.memo->merge(*state.dfs->memo_stats());
  }

  // The phase-1 expansion runs on the calling thread; its work and
  // steal-free task count are charged to worker slot 0 so the
  // WorkerStats totals still cover every step of the run.
  result.worker_stats.resize(num_threads);
  for (std::size_t w = 0; w < num_threads; ++w) {
    result.worker_stats[w].seeds = pool_stats[w].tasks;
    result.worker_stats[w].steals = pool_stats[w].steals;
    result.worker_stats[w].busy_seconds = pool_stats[w].busy_seconds;
    result.worker_stats[w].work = workers[w].work;
  }
  result.worker_stats[0].seeds += seeds.size();
  result.worker_stats[0].work += root_work;

  internal::finish_classify_result(circuit, &result);
  result.wall_seconds = watch.elapsed_seconds();
  return result;
}

}  // namespace rd
