// Input-sort heuristics (Section V) and the top-level RD identification
// entry points used by the benchmark harnesses.
//
// Heuristic 1 ranks a gate's inputs by ascending |LP_c(l)| = |P(l)|,
// i.e. plain structural path counting — linear time.
//
// Heuristic 2 ranks by ascending |FS_c^sup(l) \ T_c^sup(l)|, the
// (approximated) number of functionally sensitizable but not
// non-robustly testable logical paths through the lead with controlling
// final value: paths in T are kept by *every* σ^π and paths outside FS
// by *none*, so only the FS\T band is actually steerable (Algorithm 3).
// It costs two extra classifier runs (FS and NR criteria).
#pragma once

#include <optional>
#include <string_view>

#include "core/classify.h"
#include "core/input_sort.h"
#include "netlist/circuit.h"
#include "util/rng.h"

namespace rd {

/// Heuristic 1's sort: ascending physical path count per lead.
/// Tie-break is random when `tie_breaker` is given (paper: "ordered
/// arbitrarily"), by pin index otherwise.
InputSort heuristic1_sort(const Circuit& circuit, Rng* tie_breaker = nullptr);

/// Heuristic 2's sort via Algorithm 3: two classifier pre-runs compute
/// per-lead |FS_c^sup(l)| and |T_c^sup(l)|; inputs are ranked by the
/// ascending difference.  The pre-run results are returned for
/// inspection/benchmarking when out parameters are supplied.  When
/// `base` is given, its work_limit/backward_implications/num_threads
/// settings apply to the pre-runs; the two independent pre-runs are
/// themselves evaluated concurrently when base->num_threads allows
/// (the thread budget is split between them), and the sort is
/// identical to the sequential evaluation.
InputSort heuristic2_sort(const Circuit& circuit, Rng* tie_breaker = nullptr,
                          ClassifyResult* fs_run = nullptr,
                          ClassifyResult* nr_run = nullptr,
                          const ClassifyOptions* base = nullptr);

/// True for the input-sort specs every front end accepts: "1"
/// (Heuristic 1), "2" (Heuristic 2), "inverse" (Heuristic 2 reversed)
/// and "fus" (no sort: the FUS baseline's FS criterion).
bool is_sort_spec(std::string_view spec);

/// The input sort a spec names, as build_input_sort made it.
struct InputSortBuild {
  /// The sort; nullopt for "fus" and when a pre-run aborted.
  std::optional<InputSort> sort;

  /// Wall-clock seconds of the construction.  Nondeterministic.
  double seconds = 0.0;

  /// DFS extension steps of Heuristic 2's FS/NR pre-runs (0 for "1"
  /// and "fus"; deterministic on completed runs).
  std::uint64_t prerun_work = 0;

  /// Set when a Heuristic 2 pre-run aborted.  A sort cut from an
  /// aborted pre-run is not Heuristic 2's sort, so there is none, and
  /// this is what to report instead of the final run: completed =
  /// false with the pre-run's abort_reason and total_logical.
  std::optional<ClassifyResult> aborted;
};

/// Builds the sort `spec` names; throws std::invalid_argument unless
/// is_sort_spec(spec).  `base`'s work_limit, num_threads, guard and
/// backward_implications apply to Heuristic 2's pre-runs (see
/// heuristic2_sort); `tie_breaker` is passed to the heuristic.
InputSortBuild build_input_sort(const Circuit& circuit, std::string_view spec,
                                const ClassifyOptions& base,
                                Rng* tie_breaker);

/// End-to-end result of one RD identification run.
struct RdIdentification {
  InputSort sort;
  ClassifyResult classify;

  /// Observability: wall-clock seconds spent building the input sort
  /// (Heuristic 1's structural counting, or Heuristic 2's two
  /// classifier pre-runs).  Nondeterministic.
  double sort_seconds = 0.0;

  /// Observability: DFS extension steps spent in Heuristic 2's FS/NR
  /// pre-runs (0 for Heuristic 1; deterministic on completed runs).
  std::uint64_t prerun_work = 0;
};

/// Heuristic 1 end-to-end: build the sort, classify under (π1)-(π3).
RdIdentification identify_rd_heuristic1(const Circuit& circuit,
                                        const ClassifyOptions& base = {},
                                        Rng* tie_breaker = nullptr);

/// Heuristic 2 end-to-end (three classifier runs total, as the paper
/// notes when discussing Table II's CPU times).  If either pre-run
/// aborts, the final run is skipped: `classify` reports completed =
/// false with that pre-run's abort_reason, and prerun_work counts the
/// pre-runs' work.
RdIdentification identify_rd_heuristic2(const Circuit& circuit,
                                        const ClassifyOptions& base = {},
                                        Rng* tie_breaker = nullptr);

/// The control experiment of Table I's last column: Heuristic 2's sort
/// reversed (aborted pre-runs are reported as for
/// identify_rd_heuristic2).
RdIdentification identify_rd_heuristic2_inverse(const Circuit& circuit,
                                                const ClassifyOptions& base = {},
                                                Rng* tie_breaker = nullptr);

/// The FUS baseline of [2] (Table I column "FUS"): the share of logical
/// paths provably functionally *un*sensitizable.
ClassifyResult classify_fus(const Circuit& circuit,
                            const ClassifyOptions& base = {});

/// Extension beyond the paper: stochastic local refinement of an input
/// sort.  Starting from `seed_sort` (typically Heuristic 2's), each
/// iteration swaps the ranks of two inputs at a random multi-input
/// gate, reclassifies, and keeps the move iff the kept-path count does
/// not increase.  Costs one classifier run per iteration, so it only
/// pays on circuits whose classification is cheap relative to the
/// value of a smaller test set.  Returns the refined sort and its
/// classification.
RdIdentification refine_sort(const Circuit& circuit, InputSort seed_sort,
                             std::size_t iterations, Rng& rng,
                             const ClassifyOptions& base = {});

}  // namespace rd
