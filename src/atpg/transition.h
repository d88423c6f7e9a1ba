// Transition (gate delay) fault model — the paper's introduction
// contrasts it with path delay faults ([3]): a single gate is slow to
// rise or slow to fall, lumped at its output.  A two-pattern test
// launches the corresponding transition at the fault site with v1→v2
// and propagates the (late) value to a PO, which is exactly "v2
// detects the matching stuck-at fault".
//
// The module exists for the crossover experiments: a compact path
// delay test set also covers most transition faults, and transition
// coverage is the classic cheaper metric to compare against.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "atpg/stuck_at.h"
#include "atpg/waveform.h"
#include "netlist/circuit.h"
#include "util/exec_guard.h"

namespace rd {

struct TransitionFault {
  GateId gate = kNullGate;
  bool slow_to_rise = false;  // needs a 0->1 launch at the gate output

  bool operator==(const TransitionFault& other) const = default;
};

/// Both polarities for every logic gate and PI (PO markers excluded —
/// they are observation points, not logic).
std::vector<TransitionFault> all_transition_faults(const Circuit& circuit);

/// A two-pattern transition-fault test.
struct TransitionTest {
  std::vector<bool> v1;
  std::vector<bool> v2;
};

/// Typed outcome of a transition-test search: kTestable carries the
/// test, kRedundant is a completed untestability proof, kAborted
/// reports the budget or guard cause.
struct TransitionSearch {
  AtpgVerdict verdict = AtpgVerdict::kAborted;
  std::optional<TransitionTest> test;
  std::uint64_t nodes = 0;
  AbortReason abort_reason = AbortReason::kNone;
};

/// Complete search: v2 detecting the matching stuck-at fault (PODEM),
/// then v1 justifying the initial value at the fault site (implication
/// engine + branch-and-bound).  Never throws on exhaustion: budget and
/// guard both surface as a kAborted verdict with the typed cause.
TransitionSearch search_transition_test(const Circuit& circuit,
                                        const TransitionFault& fault,
                                        std::uint64_t max_nodes = 1u << 22,
                                        ExecGuard* guard = nullptr);

/// Checks a candidate test by simulation.
bool transition_test_is_valid(const Circuit& circuit,
                              const TransitionFault& fault,
                              const TransitionTest& test);

/// Fraction (in percent) of all transition faults detected by a set of
/// two-pattern tests given as per-PI waveforms (e.g. a generated path
/// delay test set — the crossover metric).
double transition_coverage(const Circuit& circuit,
                           const std::vector<std::vector<Wave>>& tests);

}  // namespace rd
