// Incremental (ECO) reclassification: per-PO cone decomposition over a
// ConeCacheStore (DESIGN.md §13).
//
// Soundness of the decomposition: every logical path ends at exactly
// one primary output, and extract_cone_canonical preserves all paths
// to that output, so summing per-cone results reproduces the
// whole-circuit totals exactly.  Conflicts found by the classifier's
// local implications are confined to the path's own fan-in cone —
// backward reasoning never leaves it (the cone is transitively closed
// under fan-ins) and forward propagation outside it evaluates gates
// functionally, which cannot contradict itself — so per-cone verdicts
// equal whole-circuit verdicts path by path.  What differs from a
// whole-circuit run is observability (propagation counters include
// out-of-cone gates there) and, for the sort heuristics, *where* the
// sort is computed: eco builds each cone's sort on the cone itself
// with a fixed tie-break seed, making every cone's result a pure
// function of (cone structure, sort spec) — the property the cache
// key relies on.  A whole-circuit heuristic sort would be perturbed
// everywhere by any edit, invalidating every cone.
//
// The determinism contract is therefore *within the mode*: two eco
// runs of the same circuit and options produce bit-identical
// deterministic fields (verdicts, kept-path keys, work, implication
// counters) regardless of thread count and — the point — of which
// cones were served from cache.  The differential tests pin
// warm == cold after edits; the fus criterion, whose conditions are
// sort-free, is additionally pinned against the whole-circuit engine.
//
// Not supported in eco mode: collect_lead_counts (per-lead tallies are
// a whole-circuit observability feature); classify_eco throws
// std::invalid_argument for it.  work_limit applies per cone.
#pragma once

#include <string>

#include "cache/cone_cache.h"
#include "core/classify.h"
#include "netlist/circuit.h"

namespace rd {

struct EcoOptions {
  /// Per-cone sort recipe: "1" | "2" | "inverse" | "fus".
  std::string sort_spec = "2";

  /// Thread/work/guard/collect_paths_limit knobs, applied per
  /// cone.  criterion/sort/compiled/collect_lead_counts are managed by
  /// the driver and must be left at their defaults.
  ClassifyOptions base;
};

struct EcoStats {
  std::uint64_t cones = 0;   // POs processed (== circuit outputs unless
                             // the run aborted mid-sweep)
  std::uint64_t hits = 0;    // cones served from the store
  std::uint64_t misses = 0;  // cones reclassified
  std::uint64_t stored = 0;  // fresh records put this run

  /// Sort-construction observability over the reclassified cones
  /// (cached cones pay neither), mirroring RdIdentification.
  double sort_seconds = 0.0;
  std::uint64_t prerun_work = 0;
};

struct EcoResult {
  /// Aggregated over cones in primary-output order; deterministic
  /// fields are bit-identical for every thread count and cache state.
  ClassifyResult classify;
  EcoStats stats;
};

/// Classifies `circuit` cone by cone through `store`.  The store is
/// only ever fed records from *completed* cone runs; an abort (guard
/// trip, per-cone work_limit) stops the sweep with the typed reason
/// and partial sums, exactly like the whole-circuit engines.
EcoResult classify_eco(const Circuit& circuit, ConeCacheStore& store,
                       const EcoOptions& options);

}  // namespace rd
