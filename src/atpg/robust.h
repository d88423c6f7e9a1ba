// Robust path-delay-fault testability checking.
//
// A robust test for a logical path (P, x̄→x) is a two-pattern sequence
// that measures P's delay in *any* implementation C_m (Section II; Lin
// & Reddy).  The classic sufficient-and-necessary structural
// characterization per on-path gate g:
//
//   * the on-path input carries a clean transition,
//   * if its final value is non-controlling: every side input settles
//     cleanly on the non-controlling value,
//   * if its final value is controlling: every side input is *steady*
//     non-controlling.
//
// The checker searches over per-PI waveform assignments {S0,S1,R,F}
// with constraint propagation by full waveform resimulation; it is
// exact (complete search) and intended for small circuits — the
// paper's example-circuit experiments (Figures 2-4) and the test
// suite's fault-coverage cross-checks.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "atpg/verdict.h"
#include "atpg/waveform.h"
#include "netlist/circuit.h"
#include "paths/path.h"
#include "util/exec_guard.h"

namespace rd {

/// A found robust test: one waveform per PI (index-aligned with
/// circuit.inputs()); every entry is S0, S1, R or F.
using RobustTest = std::vector<Wave>;

/// Outcome of a robust-test search, typed instead of thrown: kTestable
/// carries the test, kRedundant is a completed proof of robust
/// untestability, kAborted reports the budget or guard cause in
/// `abort_reason`.
struct RobustSearch {
  AtpgVerdict verdict = AtpgVerdict::kAborted;
  std::optional<RobustTest> test;
  std::uint64_t nodes = 0;
  AbortReason abort_reason = AbortReason::kNone;
};

/// Complete search for a robust test.  Never throws on exhaustion: the
/// node budget and an optional execution guard both surface as a
/// kAborted verdict with the typed cause.
RobustSearch search_robust_test(const Circuit& circuit,
                                const LogicalPath& path,
                                std::uint64_t max_nodes = 1u << 26,
                                ExecGuard* guard = nullptr);

/// Verifies that a concrete PI waveform assignment robustly tests the
/// path: every PI wave is S0, S1, R or F and the path fault simulator
/// (classify_path_detection) grades the test kRobust.  Used by tests to
/// validate found tests with code the search does not share.
bool robust_test_is_valid(const Circuit& circuit, const LogicalPath& path,
                          const RobustTest& test);

}  // namespace rd
