// Non-robust path-delay-fault test generation (Definition 5 /
// Schulz-Fink-Fuchs criterion).
//
// A non-robust test is a two-pattern sequence <v1, v2> where v2
// sensitizes the path statically — every side input settles at the
// non-controlling value under v2 — and v1 launches the transition at
// the path's primary input.  Unlike a robust test its validity can be
// invalidated by other delay faults, but it is the standard fallback
// for robust-untestable paths, and T(C), the set of non-robustly
// testable paths, is the inner bound of the paper's Lemma 1 hierarchy.
//
// The generator runs a complete branch-and-bound over PI values on top
// of the trail-based implication engine: the NR side conditions are
// asserted up front (a conflict proves untestability immediately —
// this is exactly the T^sup approximation being exact on the fully
// constrained problem), then free PIs are enumerated to a concrete
// witness.  Following Remark 1, v1 is v2 with the path's PI
// complemented (a single-input-change test).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "atpg/verdict.h"
#include "netlist/circuit.h"
#include "paths/path.h"
#include "util/exec_guard.h"

namespace rd {

/// A two-pattern non-robust test.
struct NonRobustTest {
  std::vector<bool> v1;  // initialization vector (index-aligned with PIs)
  std::vector<bool> v2;  // sensitizing vector
};

/// Typed outcome of a non-robust search (mirrors RobustSearch):
/// kTestable carries the test, kRedundant is a completed untestability
/// proof, kAborted reports the budget or guard cause.
struct NonRobustSearch {
  AtpgVerdict verdict = AtpgVerdict::kAborted;
  std::optional<NonRobustTest> test;
  std::uint64_t nodes = 0;
  AbortReason abort_reason = AbortReason::kNone;
};

/// Complete search for a non-robust test.  Never throws on exhaustion:
/// the node budget and an optional execution guard both surface as a
/// kAborted verdict with the typed cause.
NonRobustSearch search_nonrobust_test(const Circuit& circuit,
                                      const LogicalPath& path,
                                      std::uint64_t max_nodes = 1u << 26,
                                      ExecGuard* guard = nullptr);

/// Validates a candidate test with the path fault simulator: <v1, v2>
/// must detect the path at least non-robustly (classify_path_detection).
bool nonrobust_test_is_valid(const Circuit& circuit, const LogicalPath& path,
                             const NonRobustTest& test);

}  // namespace rd
