#include "core/classify.h"

#include <memory>
#include <stdexcept>

#include "core/classify_dfs.h"
#include "sim/implication.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace rd {

ClassifyResult classify_paths_serial(const Circuit& circuit,
                                     const ClassifyOptions& options) {
  Stopwatch watch;
  ClassifyResult result;
  if (options.collect_lead_counts)
    result.kept_controlling_per_lead.assign(circuit.num_leads(), 0);

  std::unique_ptr<const CompiledCircuit> owned_compiled;
  const CompiledCircuit& compiled =
      *internal::resolve_compiled(circuit, options, owned_compiled);
  internal::SerialBudget budget(options.work_limit, options.guard);
  internal::SeedDfs<internal::SerialBudget> dfs(
      compiled, options, budget,
      options.collect_lead_counts ? &result.kept_controlling_per_lead
                                  : nullptr);
  try {
    for (const internal::ClassifySeed& seed :
         internal::enumerate_seeds(circuit)) {
      const std::uint64_t remaining_keys =
          options.collect_paths_limit > result.kept_keys.size()
              ? options.collect_paths_limit - result.kept_keys.size()
              : 0;
      auto outcome = dfs.run_seed(seed, remaining_keys);
      result.kept_paths += outcome.kept_paths;
      result.work += outcome.work;
      for (std::size_t i = 0; i < outcome.keys.size(); ++i)
        result.kept_keys.push_back(outcome.keys.key(i));
      // Hand the arena back so the next seed appends into its
      // already-reserved capacity instead of growing a fresh one.
      dfs.recycle(std::move(outcome.keys));
      if (outcome.exhausted) {
        result.completed = false;
        result.abort_reason = budget.reason();
        break;
      }
      // Seed boundary: publish strided guard charges; a trip here
      // aborts between seeds with exact partial counts.
      if (!budget.flush()) {
        result.completed = false;
        result.abort_reason = budget.reason();
        break;
      }
    }
  } catch (const GuardTrippedError& error) {
    // A throwing guard hook (fault injection) unwinds here; convert it
    // into the same cooperative aborted outcome, with whatever partial
    // counts were soundly accumulated before the throw.
    result.completed = false;
    result.abort_reason = error.reason();
  }
  result.implication = dfs.implication_stats();
  result.memo = dfs.memo_stats();
  internal::finish_classify_result(circuit, &result);
  result.wall_seconds = watch.elapsed_seconds();
  return result;
}

ClassifyResult classify_paths(const Circuit& circuit,
                              const ClassifyOptions& options) {
  return ThreadPool::resolve_num_threads(options.num_threads) <= 1
             ? classify_paths_serial(circuit, options)
             : classify_paths_parallel(circuit, options);
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
