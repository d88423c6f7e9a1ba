// Graceful-degradation ladder over the library's classification
// engines.  A caller that wants the strongest answer affordable under
// an execution guard asks this layer instead of picking an engine.
//
// The path space is explored once, by the paper's local-implication
// classifier (core/classify.h) collecting its kept paths.  Its
// implications are sound (Theorem 1: LP(σ^π) ⊆ LP^sup(σ^π)), so every
// truly sensitizable path is among them, and the exact kept set is
// that list filtered by one exact check per path.  The ladder has one
// exact judge and two rungs:
//
//   1. exact      — one bounded SAT query per kept path on its PO-cone
//                   encoding (sat/cnf.h), one solver per PO shared by
//                   the run; a conflict-budget miss keeps the path,
//   2. approximate— the local implications' verdict, which keeps every
//                   path the classifier kept.
//
// The run answers on the exact rung when every kept path got a SAT
// answer.  It counts the kept set first, under the caller's options,
// and collects every kept key in a second run of the same DFS only
// when refinement goes ahead (the caller's own key limit may already
// cover them).  The held keys are charged to the guard while they are
// refined.  It ends on the approximate rung with the classifier's set
// when the classifier aborts or keeps more than 2^20 paths
// (kWorkBudget, a capacity miss), and leaves the exact rung for
// kWorkBudget when a query runs out of conflicts.  A guard trip after
// the classifier finished keeps the classifier's set too, but marks
// the result aborted with the trip's cause, so a cancelled, out-of-time
// or out-of-memory run reports so.  Both rungs keep a superset of the
// truly sensitizable paths, so degradation never un-sounds the
// identified RD-set — it only shrinks it.  The reason for leaving the
// exact rung is reported so run reports can record `degraded_from` /
// `abort_reason`.
#pragma once

#include <cstdint>

#include "core/classify.h"
#include "netlist/circuit.h"
#include "util/exec_guard.h"

namespace rd {

/// The ladder's rungs, strongest first.
enum class EngineRung : std::uint8_t { kExact, kApproximate };

/// Stable lower-case name ("exact", "approximate") for reports.
const char* engine_rung_name(EngineRung rung);

struct ResilientOptions {
  /// Optional execution guard shared by the classifier and every
  /// per-path verdict.  A SAT query charges it one unit plus one per
  /// conflict, a key-collecting second classifier run charges it
  /// again, and the held keys count against its memory ceiling while
  /// they are refined.
  ExecGuard* guard = nullptr;

  /// The classifier's configuration (criterion and sort are read by
  /// both rungs; the guard field inside is overridden by `guard`
  /// above, and collect_paths_limit caps the result's kept_keys).
  ClassifyOptions classify;
};

struct ResilientClassifyResult {
  /// The classifier's result with its kept set refined by the
  /// per-path verdicts: kept_keys (up to the caller's
  /// collect_paths_limit) come in the classifier's DFS order, and
  /// kept_paths / rd_paths count the refined set.  work, implication
  /// and worker_stats are the classifier's counters; lead tallies are
  /// dropped once the set is refined, since they count the unrefined
  /// one.  On the approximate rung this is the classifier's result,
  /// with completed = false and the guard's cause when a trip
  /// abandoned the refinement.
  ClassifyResult classify;

  /// kExact when every kept path got a SAT answer, else kApproximate
  /// (the ladder starts on kExact, so kApproximate was reached by
  /// degrading from it).
  EngineRung engine = EngineRung::kApproximate;

  /// Why the exact rung was abandoned (kNone when it answered):
  /// kWorkBudget for capacity (too many kept paths, a conflict-budget
  /// miss), else the guard's trip cause.
  AbortReason degraded_reason = AbortReason::kNone;
};

/// Runs the ladder for a whole-circuit classification.
ResilientClassifyResult classify_resilient(const Circuit& circuit,
                                           const ResilientOptions& options);

namespace internal {
/// classify_resilient with the cap on refined kept paths as a
/// parameter (the public entry point passes 2^20), so tests can reach
/// the capacity miss on small circuits.
ResilientClassifyResult classify_resilient(const Circuit& circuit,
                                           const ResilientOptions& options,
                                           std::uint64_t max_refined_paths);
}  // namespace internal

}  // namespace rd
