#include "core/resilient.h"

#include <algorithm>
#include <map>
#include <optional>

#include "core/classify_dfs.h"
#include "core/exact.h"
#include "sat/cnf.h"
#include "sat/solver.h"
#include "util/stopwatch.h"

namespace rd {

namespace {

/// Most kept paths the ladder refines one by one; above it the run
/// keeps the classifier's answer on the approximate rung.  Refinement
/// holds one key per kept path, about 280 MB at the cap.
constexpr std::uint64_t kMaxRefinedPaths = std::uint64_t{1} << 20;

/// Conflict budget of one SAT query.
constexpr std::uint64_t kMaxConflicts = 100000;

bool guard_tripped(const ExecGuard* guard) {
  return guard != nullptr && guard->tripped();
}

/// One incremental solver per primary output, each holding only that
/// PO's fan-in cone, built on first use and shared by every query on a
/// path to that PO.
class ConeSolvers {
 public:
  ConeSolvers(const Circuit& circuit, ExecGuard* guard)
      : circuit_(circuit), guard_(guard) {}

  /// sat_sensitizable on the path's cone; nullopt on a budget-out.
  std::optional<bool> sensitizable(const LogicalPath& path,
                                   Criterion criterion,
                                   const InputSort* sort) {
    const GateId po = path_po(circuit_, path.path);
    Cone& cone = cones_.try_emplace(po, circuit_, po, guard_).first->second;
    return sat_sensitizable(circuit_, cone.cnf, cone.solver, path, criterion,
                            sort, kMaxConflicts);
  }

 private:
  struct Cone {
    Cone(const Circuit& circuit, GateId po, ExecGuard* guard)
        : cnf(circuit, solver, po) {
      solver.set_guard(guard);
    }
    SatSolver solver;
    CircuitCnf cnf;
  };

  const Circuit& circuit_;
  ExecGuard* guard_;
  std::map<GateId, Cone> cones_;
};

bool sweep_feasible(const Circuit& circuit, const ResilientOptions& options) {
  const std::size_t num_inputs = circuit.inputs().size();
  return num_inputs <= options.exact_max_inputs &&
         num_inputs <= kSweepMaxInputs;
}

/// Rungs 1 and 2 of the per-path ladder: the sweep, else SAT on the
/// path's cone.  When neither answers, the verdict is left on the
/// approximate rung and keeps the path.
ResilientPathVerdict exact_verdict(const Circuit& circuit,
                                   const LogicalPath& path, Criterion criterion,
                                   const InputSort* sort,
                                   const ResilientOptions& options,
                                   ConeSolvers& cones) {
  ResilientPathVerdict verdict;
  ExecGuard* guard = options.guard;

  const auto record_degrade = [&](AbortReason reason) {
    if (verdict.degraded_reason == AbortReason::kNone)
      verdict.degraded_reason = reason;
  };

  // Rung 1: the sweep costs 2^n simulations — charge it up front so a
  // work/deadline-guarded caller degrades instead of blocking.
  if (sweep_feasible(circuit, options)) {
    const std::size_t num_inputs = circuit.inputs().size();
    if (guard == nullptr || guard->check(std::uint64_t{1} << num_inputs)) {
      verdict.survives = exactly_sensitizable(circuit, path, criterion, sort);
      verdict.exact = true;
      verdict.engine = EngineRung::kExact;
      return verdict;
    }
    record_degrade(guard->reason());
  } else {
    record_degrade(guard_tripped(guard) ? guard->reason()
                                        : AbortReason::kWorkBudget);
  }

  // Rung 2: one bounded SAT query, charged one unit so the guard is
  // polled even when the solver meets no conflict.
  if (guard == nullptr || guard->check()) {
    const std::optional<bool> sensitizable =
        cones.sensitizable(path, criterion, sort);
    if (sensitizable.has_value()) {
      verdict.survives = *sensitizable;
      verdict.exact = true;
      verdict.engine = EngineRung::kSatBounded;
      return verdict;
    }
    record_degrade(guard_tripped(guard) ? guard->reason()
                                        : AbortReason::kWorkBudget);
  } else {
    record_degrade(guard->reason());
  }
  return verdict;
}

}  // namespace

const char* engine_rung_name(EngineRung rung) {
  switch (rung) {
    case EngineRung::kExact: return "exact";
    case EngineRung::kSatBounded: return "sat";
    case EngineRung::kApproximate: return "approximate";
  }
  return "unknown";
}

namespace internal {

ResilientClassifyResult classify_resilient(const Circuit& circuit,
                                           const ResilientOptions& options,
                                           std::uint64_t max_refined_paths) {
  Stopwatch watch;
  ResilientClassifyResult result;
  ExecGuard* guard = options.guard;

  // The weakest rung used so far; only the first (strongest) reason
  // for leaving a rung is reported as the degradation cause.
  const auto degrade = [&](EngineRung rung, AbortReason reason) {
    result.engine = std::max(result.engine, rung);
    if (result.degraded_reason == AbortReason::kNone)
      result.degraded_reason = reason;
  };
  result.engine = EngineRung::kExact;
  if (!sweep_feasible(circuit, options))
    degrade(EngineRung::kSatBounded, AbortReason::kWorkBudget);

  // The path-space exploration, under the caller's options: it is the
  // approximate rung's answer and counts the kept set before any key
  // is held, so a run over the cap keeps subtree replay and holds at
  // most the caller's keys.
  ClassifyOptions classify_options = options.classify;
  classify_options.guard = guard;
  ClassifyResult& classified = result.classify;
  classified = classify_paths(circuit, classify_options);

  if (!classified.completed) {
    degrade(EngineRung::kApproximate, classified.abort_reason);
  } else if (classified.kept_paths > max_refined_paths) {
    degrade(EngineRung::kApproximate, AbortReason::kWorkBudget);
  } else {
    // A guard trip or an unfinished key run abandons the refinement.
    AbortReason abandoned = AbortReason::kNone;
    std::vector<std::vector<std::uint32_t>>& keys = classified.kept_keys;
    if (keys.size() < classified.kept_paths) {
      // The same DFS again, collecting every kept key: its order
      // extends the caller's prefix and its counters repeat the first
      // run's, which the result keeps.
      ClassifyOptions keyed = classify_options;
      keyed.collect_paths_limit = classified.kept_paths;
      keyed.collect_lead_counts = false;
      ClassifyResult rerun = classify_paths(circuit, keyed);
      if (rerun.completed) {
        keys = std::move(rerun.kept_keys);
      } else {
        abandoned = rerun.abort_reason;
      }
    }
    // Refine each kept path; a budget-out keeps it.
    ConeSolvers cones(circuit, guard);
    std::vector<bool> survives;
    survives.reserve(keys.size());
    for (std::size_t i = 0; abandoned == AbortReason::kNone && i < keys.size();
         ++i) {
      const ResilientPathVerdict verdict = exact_verdict(
          circuit, LogicalPath::from_key(keys[i]), options.classify.criterion,
          options.classify.sort, options, cones);
      degrade(verdict.engine, verdict.degraded_reason);
      survives.push_back(verdict.survives);
      if (guard_tripped(guard)) abandoned = guard->reason();
    }
    if (abandoned != AbortReason::kNone) {
      // The classifier's answer stands, marked with the cause so a
      // cancelled or out-of-time run reports as aborted.
      degrade(EngineRung::kApproximate, abandoned);
      classified.completed = false;
      classified.abort_reason = abandoned;
    } else {
      // Compact the survivors in place, keeping the DFS order.
      std::size_t kept = 0;
      for (std::size_t i = 0; i < keys.size(); ++i)
        if (survives[i]) keys[kept++].swap(keys[i]);
      keys.resize(kept);
      classified.kept_paths = kept;
      classified.kept_controlling_per_lead.clear();
      internal::finish_classify_result(circuit, &classified);
    }
  }

  if (classified.kept_keys.size() > options.classify.collect_paths_limit)
    classified.kept_keys.resize(options.classify.collect_paths_limit);
  classified.wall_seconds = watch.elapsed_seconds();
  return result;
}

}  // namespace internal

ResilientClassifyResult classify_resilient(const Circuit& circuit,
                                           const ResilientOptions& options) {
  return internal::classify_resilient(circuit, options, kMaxRefinedPaths);
}

ResilientPathVerdict resilient_path_sensitizable(
    const Circuit& circuit, const LogicalPath& path, Criterion criterion,
    const InputSort* sort, const ResilientOptions& options) {
  ConeSolvers cones(circuit, options.guard);
  ResilientPathVerdict verdict =
      exact_verdict(circuit, path, criterion, sort, options, cones);
  // Rung 3: local implications — instant and conservative.
  if (verdict.engine == EngineRung::kApproximate)
    verdict.survives =
        path_survives_local_implications(circuit, path, criterion, sort);
  return verdict;
}

}  // namespace rd
