// Single stuck-at fault model, PODEM test generation with complete
// redundancy proof, and a 64-way random-pattern fault-simulation
// prefilter.
//
// PODEM's one caller is the transition-fault generator
// (atpg/transition.h): the second vector of a slow-to-rise (fall) test
// must detect the gate's stuck-at-0 (1) fault.  The leaf-dag baseline
// of [1] (src/unfold) has its own X-fault search.  PODEM is run to
// exhaustion, so a kRedundant verdict is a proof; kAborted is returned
// when the node budget runs out.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "netlist/circuit.h"
#include "sim/value.h"
#include "util/exec_guard.h"

namespace rd {

/// A single stuck-at fault on a lead (input pin) or a gate output.
struct StuckFault {
  enum class Site : std::uint8_t { kGateOutput, kLead };
  Site site = Site::kLead;
  std::uint32_t index = 0;  // GateId or LeadId
  bool stuck_value = false;

  static StuckFault on_lead(LeadId lead, bool value) {
    return StuckFault{Site::kLead, lead, value};
  }
  static StuckFault on_output(GateId gate, bool value) {
    return StuckFault{Site::kGateOutput, gate, value};
  }
};

enum class AtpgVerdict : std::uint8_t { kTestable, kRedundant, kAborted };

struct AtpgResult {
  AtpgVerdict verdict = AtpgVerdict::kAborted;
  /// PI assignment detecting the fault (entries may remain unknown =
  /// don't-care), index-aligned with circuit.inputs().  Only populated
  /// for kTestable.
  std::vector<Value3> test;
  std::uint64_t nodes = 0;
  /// Why the search stopped when verdict == kAborted: kWorkBudget for
  /// the node budget, otherwise the guard's trip cause.  kNone on
  /// kTestable / kRedundant.
  AbortReason abort_reason = AbortReason::kNone;
};

/// PODEM.  Complete unless the node budget is exceeded or the guard
/// trips (verdict kAborted with the typed cause — never an exception).
AtpgResult podem(const Circuit& circuit, const StuckFault& fault,
                 std::uint64_t max_nodes = 1u << 22,
                 ExecGuard* guard = nullptr);

/// Good/faulty simulation of one fully/partially specified pattern;
/// returns true if the fault is detected at some PO (definitely, under
/// three-valued semantics).  Exposed for tests and the fault simulator.
bool detects_fault(const Circuit& circuit, const StuckFault& fault,
                   const std::vector<Value3>& pi_values);

/// 64-way parallel random-pattern check: returns true if any of the
/// `num_words * 64` random patterns detects the fault.  Used to filter
/// obviously-testable faults before the expensive PODEM proof.
bool random_patterns_detect(const Circuit& circuit, const StuckFault& fault,
                            std::uint64_t seed, std::size_t num_words = 4);

}  // namespace rd
