// Exact (exhaustive) reference implementations of the paper's path
// classifications, used to validate the fast classifier and to compute
// true optima on small circuits:
//
//  * exact sensitizability of a single logical path under FS / NR /
//    (π1)-(π3) by sweeping all input vectors,
//  * the exact kept-path sets FS(C), T(C) and LP(σ^π),
//  * the true minimum |LP(σ)| over *all* complete stabilizing
//    assignments (branch-and-bound over the Step 2(b) choice tree),
//    i.e. the quantity the approach of [1] tries to reach.
//
// Everything here is exponential in the input count and/or path count
// and is guarded accordingly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "core/classify.h"
#include "core/stabilize.h"
#include "netlist/circuit.h"
#include "paths/path.h"

namespace rd {

/// The most PIs the 2^n sweep (exactly_sensitizable) accepts.
inline constexpr std::size_t kSweepMaxInputs = 24;

/// True if some input vector satisfies the chosen criterion's
/// conditions for the logical path.  Requires ≤ kSweepMaxInputs PIs.
/// `sort` is consulted only for Criterion::kInputSort.
bool exactly_sensitizable(const Circuit& circuit, const LogicalPath& path,
                          Criterion criterion,
                          const InputSort* sort = nullptr);

/// Exact kept-path set for a criterion: FS(C), T(C) or LP(σ^π).
/// Enumerates all paths explicitly; throws if more than `max_paths`.
LogicalPathSet exact_kept_paths(const Circuit& circuit, Criterion criterion,
                                const InputSort* sort = nullptr,
                                std::uint64_t max_paths = 1u << 20);

/// Minimum |LP(σ)| over every complete stabilizing assignment, by
/// branch-and-bound over the per-(vector, PO) stabilizing-system
/// choices.  Returns nullopt if the search exceeds `max_states`
/// explored combinations.  Small circuits only (≤ 16 PIs).
std::optional<std::size_t> exact_min_lp_sigma(const Circuit& circuit,
                                              std::uint64_t max_states = 1u
                                                                         << 22);

}  // namespace rd
