#include "atpg/testset.h"

#include "atpg/nonrobust.h"
#include "atpg/robust.h"
#include "util/stopwatch.h"

namespace rd {

namespace {

/// Runs one test against every still-open path, upgrading detection
/// records; returns true if it newly detected anything.
bool apply_test(const Circuit& circuit, const std::vector<LogicalPath>& paths,
                const std::vector<Wave>& test, int test_index,
                GeneratedTestSet& result) {
  const auto gate_waves = simulate_waves(circuit, test);
  bool useful = false;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (result.detection[i] == DetectionClass::kRobust) continue;
    const DetectionClass detection =
        classify_path_detection(circuit, paths[i], gate_waves);
    if (detection > result.detection[i]) {
      result.detection[i] = detection;
      result.detected_by[i] = test_index;
      useful = true;
    }
  }
  return useful;
}

}  // namespace

GeneratedTestSet generate_test_set(const Circuit& circuit,
                                   const std::vector<LogicalPath>& paths,
                                   const TestSetOptions& options) {
  Stopwatch watch;
  GeneratedTestSet result;
  result.detection.assign(paths.size(), DetectionClass::kNone);
  result.detected_by.assign(paths.size(), -1);

  // A guard trip aborts the whole generation (the per-path node budget
  // only skips the current path and is counted separately).
  const auto guard_tripped = [&] {
    return options.guard != nullptr && options.guard->tripped();
  };

  // One pass: search every path whose detection is still below
  // `target`, keep each found test and simulate it against every path
  // (greedy compaction).  A per-path node-budget abort only skips that
  // path; a guard trip ends the pass, and the next pass stops at once.
  const auto run_pass = [&](DetectionClass target, std::uint64_t& nodes,
                            std::size_t& budget_exceeded,
                            const auto& search, const auto& to_waves) {
    for (std::size_t i = 0; i < paths.size(); ++i) {
      if (guard_tripped()) return;
      if (result.detection[i] >= target) continue;
      auto found = search(paths[i]);
      nodes += found.nodes;
      if (found.verdict == AtpgVerdict::kAborted) {
        if (found.abort_reason == AbortReason::kWorkBudget &&
            !guard_tripped()) {
          ++budget_exceeded;
          continue;
        }
        return;
      }
      if (!found.test.has_value()) continue;
      const int index = static_cast<int>(result.tests.size());
      result.tests.push_back(to_waves(*found.test));
      apply_test(circuit, paths, result.tests.back(), index, result);
    }
  };

  // Robust tests first; the non-robust fallback then targets whatever
  // is still undetected.
  run_pass(
      DetectionClass::kRobust, result.robust_nodes,
      result.robust_budget_exceeded,
      [&](const LogicalPath& path) {
        return search_robust_test(circuit, path, options.max_robust_nodes,
                                  options.guard);
      },
      [](RobustTest& test) { return std::move(test); });
  if (options.allow_nonrobust)
    run_pass(
        DetectionClass::kNonRobust, result.nonrobust_nodes,
        result.nonrobust_budget_exceeded,
        [&](const LogicalPath& path) {
          return search_nonrobust_test(circuit, path,
                                       options.max_nonrobust_nodes,
                                       options.guard);
        },
        [&](const NonRobustTest& test) {
          return waves_of_vectors(circuit, test.v1, test.v2);
        });

  if (guard_tripped()) {
    result.completed = false;
    result.abort_reason = options.guard->reason();
  }

  for (const DetectionClass detection : result.detection) {
    switch (detection) {
      case DetectionClass::kRobust: ++result.robust_count; break;
      case DetectionClass::kNonRobust: ++result.nonrobust_count; break;
      case DetectionClass::kNone: ++result.undetected_count; break;
    }
  }
  if (!paths.empty())
    result.robust_coverage_percent =
        100.0 * static_cast<double>(result.robust_count) /
        static_cast<double>(paths.size());
  result.wall_seconds = watch.elapsed_seconds();
  return result;
}

}  // namespace rd
