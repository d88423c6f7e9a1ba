// Graceful-degradation ladder over the library's classification
// engines.  A caller that wants the strongest answer affordable under
// an execution guard asks this layer instead of picking an engine.
//
// The path space is explored once, by the paper's local-implication
// classifier (core/classify.h) collecting its kept paths.  Its
// implications are sound (Theorem 1: LP(σ^π) ⊆ LP^sup(σ^π)), so every
// truly sensitizable path is among them, and the exact kept set is
// that list filtered by one exact check per path.  Each kept path gets
// the strongest per-path verdict affordable, rung by rung:
//
//   1. exact      — exhaustive 2^n sweep (core/exact.h), when the
//                   circuit has at most `exact_max_inputs` PIs,
//   2. sat        — one bounded SAT query on the path's PO-cone
//                   encoding (sat/cnf.h), one solver per PO shared by
//                   the run; exact when answered, keep on a conflict-
//                   budget miss,
//   3. approximate— the local implications' verdict, which keeps every
//                   path the classifier kept.
//
// The run answers on the weakest rung any verdict used.  It counts
// the kept set first, under the caller's options, and collects every
// kept key in a second run of the same DFS only when refinement goes
// ahead (the caller's own key limit may already cover them).  It ends
// on the approximate rung with the classifier's set when the
// classifier aborts or keeps more than 2^20 paths (kWorkBudget, a
// capacity miss).  A guard trip after the classifier finished keeps
// the classifier's set too, but marks the result aborted with the
// trip's cause, so a cancelled or out-of-time run reports so.  Every
// rung keeps a superset of the truly sensitizable paths, so
// degradation never un-sounds the identified RD-set — it only shrinks
// it.  The reason for leaving the strongest rung is reported so run
// reports can record `degraded_from` / `abort_reason`.
#pragma once

#include <cstdint>
#include <vector>

#include "core/classify.h"
#include "netlist/circuit.h"
#include "paths/path.h"
#include "util/exec_guard.h"

namespace rd {

/// The ladder's rungs, strongest first.
enum class EngineRung : std::uint8_t { kExact, kSatBounded, kApproximate };

/// Stable lower-case name ("exact", "sat", "approximate") for reports.
const char* engine_rung_name(EngineRung rung);

struct ResilientOptions {
  /// Optional execution guard shared by the classifier and every
  /// per-path verdict.  The sweep charges it 2^n units per path, a SAT
  /// query one unit plus one per conflict, and a key-collecting second
  /// classifier run charges it again.
  ExecGuard* guard = nullptr;

  /// Rung 1 feasibility: skipped entirely above this many PIs (the
  /// sweep is 2^n per path and never runs above kSweepMaxInputs,
  /// core/exact.h).
  std::size_t exact_max_inputs = 20;

  /// The classifier's configuration (criterion and sort are read by
  /// every rung; the guard field inside is overridden by `guard`
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

  /// The weakest rung any verdict used (the classifier's own answer
  /// when the run degraded to kApproximate).  The ladder starts on
  /// kExact, so any other rung was reached by degrading from it.
  EngineRung engine = EngineRung::kApproximate;

  /// Why the exact rung was abandoned (kNone when it answered):
  /// kWorkBudget for capacity (too many PIs, too many kept paths, a
  /// conflict-budget miss), else the guard's trip cause.
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

/// Single-path ladder verdict.
struct ResilientPathVerdict {
  /// Whether the path is (conservatively) sensitizable.  Exact iff
  /// `exact`; otherwise a sound keep-side approximation.
  bool survives = true;
  bool exact = false;
  EngineRung engine = EngineRung::kApproximate;
  AbortReason degraded_reason = AbortReason::kNone;
};

/// Runs the per-path ladder for one logical path under `criterion`
/// (`sort` only consulted for Criterion::kInputSort): the sweep, else
/// a SAT query on the path's PO cone, else the local implications.
ResilientPathVerdict resilient_path_sensitizable(
    const Circuit& circuit, const LogicalPath& path, Criterion criterion,
    const InputSort* sort = nullptr, const ResilientOptions& options = {});

}  // namespace rd
