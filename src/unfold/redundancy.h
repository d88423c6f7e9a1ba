// RD-set identification by gradual redundancy removal on the leaf-dag —
// a from-the-literature reimplementation of the approach of Lam,
// Saldanha, Brayton & Sangiovanni-Vincentelli [1] that the paper uses
// as its quality baseline (Table III).
//
// Per output cone: build the leaf-dag, then greedily grow a per-
// polarity *kill set* — (lead, stable value) pairs whose logical paths
// are declared robust dependent.  Candidates are tried heaviest first
// (ties by lead, then value), and a kill is accepted only when one SAT
// query (src/unfold/xfault.h) proves that every primary output remains
// ternary-determined with X injected on all killed leads.  Each cone
// keeps one incremental solver: an accepted kill becomes a unit clause,
// a rejected one a negative unit, and one chain literal forbids every
// untried candidate.  The vector of each counterexample rejects, without
// a query, every untried candidate whose single X it propagates to the
// output.  By the stabilizing-system theory acceptance is exactly the
// condition that Algorithm 1 can still stabilize every input vector
// while avoiding the killed leads, i.e. that a complete stabilizing
// assignment exists whose LP(σ) misses every killed path.  This is the
// per-transition refinement of [1]'s redundant-multiple-stuck-at-fault
// formulation: a plain structural removal of a redundant line would
// also discard the opposite-polarity paths through it, which are in
// general NOT robust dependent (an OR gate settling to 0 needs every
// input settled).
#pragma once

#include <cstdint>

#include "netlist/circuit.h"
#include "util/biguint.h"
#include "util/exec_guard.h"

namespace rd {

struct UnfoldResult {
  BigUint total_logical;      // logical paths of the original circuit
  BigUint must_test_logical;  // logical paths surviving in the leaf-dags
  double rd_percent = 0.0;

  /// False when a cone's leaf-dag exceeded 2^20 gates or a kill query
  /// ran out of conflicts (abort_reason kWorkBudget; the run goes on
  /// without that cone or kill), or when the guard tripped (its cause;
  /// the run stops there).  The kills found so far are still a sound
  /// RD-set, so must_test_logical stays an upper bound.
  bool complete = true;
  AbortReason abort_reason = AbortReason::kNone;

  std::uint64_t redundancy_checks = 0;     // SAT queries asked
  std::uint64_t redundancies_removed = 0;  // kills accepted
};

/// Runs the baseline over every output cone of `circuit`.  The guard,
/// if any, is polled once per kill query and at every SAT conflict.
UnfoldResult identify_rd_unfold(const Circuit& circuit,
                                ExecGuard* guard = nullptr);

/// Constant-propagation helper (exposed for tests): returns the circuit
/// with `lead` replaced by the constant `value`, simplified, restricted
/// to the logic still feeding its POs.  Gate/pin drops preserve the
/// path-embedding property (a path of the result maps to a path of the
/// input).  If the output collapses to a constant the result has the
/// PO marker driven by a single surviving PI through no logic — the
/// caller detects this via must-test counting (such cones contribute
/// zero testable paths); `collapsed` reports it explicitly.
struct SimplifyResult {
  Circuit circuit;
  bool collapsed = false;  // some PO became constant
};
SimplifyResult propagate_constant(const Circuit& circuit, LeadId lead,
                                  bool value);

}  // namespace rd
