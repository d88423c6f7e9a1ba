#include "core/resilient.h"

#include <map>
#include <optional>
#include <vector>

#include "core/classify_dfs.h"
#include "paths/path.h"
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

/// Heap bytes of the held keys, charged to the guard while they are
/// refined.
class HeldKeysCharge {
 public:
  HeldKeysCharge(const std::vector<std::vector<std::uint32_t>>& keys,
                 ExecGuard* guard)
      : guard_(guard) {
    if (guard_ == nullptr) return;
    bytes_ = keys.capacity() * sizeof(keys[0]);
    for (const auto& key : keys) bytes_ += key.capacity() * sizeof(key[0]);
    guard_->add_memory(bytes_);
  }
  ~HeldKeysCharge() {
    if (guard_ != nullptr) guard_->sub_memory(bytes_);
  }
  HeldKeysCharge(const HeldKeysCharge&) = delete;
  HeldKeysCharge& operator=(const HeldKeysCharge&) = delete;

 private:
  ExecGuard* guard_;
  std::uint64_t bytes_ = 0;
};

/// The ladder's one exact judge: a guard poll, charged one unit so the
/// guard is polled even when the solver meets no conflict, then one
/// bounded SAT query on the path's cone.  nullopt when it did not
/// answer; the path is then kept.
std::optional<bool> exact_verdict(const LogicalPath& path, Criterion criterion,
                                  const InputSort* sort, ExecGuard* guard,
                                  ConeSolvers& cones) {
  if (guard != nullptr && !guard->check()) return std::nullopt;
  return cones.sensitizable(path, criterion, sort);
}

}  // namespace

const char* engine_rung_name(EngineRung rung) {
  switch (rung) {
    case EngineRung::kExact: return "exact";
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

  // Only the first reason for leaving the exact rung is reported.
  const auto degrade = [&](AbortReason reason) {
    if (result.engine == EngineRung::kExact) result.degraded_reason = reason;
    result.engine = EngineRung::kApproximate;
  };
  result.engine = EngineRung::kExact;

  // The path-space exploration, under the caller's options: it is the
  // approximate rung's answer and counts the kept set before any key
  // is held, so a run over the cap keeps subtree replay and holds at
  // most the caller's keys.
  ClassifyOptions classify_options = options.classify;
  classify_options.guard = guard;
  ClassifyResult& classified = result.classify;
  classified = classify_paths(circuit, classify_options);

  if (!classified.completed) {
    degrade(classified.abort_reason);
  } else if (classified.kept_paths > max_refined_paths) {
    degrade(AbortReason::kWorkBudget);
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
    const HeldKeysCharge charge(keys, guard);
    ConeSolvers cones(circuit, guard);
    std::vector<bool> survives;
    survives.reserve(keys.size());
    for (std::size_t i = 0; abandoned == AbortReason::kNone && i < keys.size();
         ++i) {
      const std::optional<bool> verdict = exact_verdict(
          LogicalPath::from_key(keys[i]), options.classify.criterion,
          options.classify.sort, guard, cones);
      if (guard_tripped(guard)) {
        abandoned = guard->reason();
      } else if (!verdict.has_value()) {
        degrade(AbortReason::kWorkBudget);
      }
      survives.push_back(verdict.value_or(true));
    }
    if (abandoned != AbortReason::kNone) {
      // The classifier's answer stands, marked with the cause so a
      // cancelled, out-of-time or out-of-memory run reports as aborted.
      degrade(abandoned);
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

}  // namespace rd
