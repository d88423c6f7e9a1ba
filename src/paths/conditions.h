// A logical path's stable-value conditions, stated once (Definition 4,
// Definition 5 and Lemma 2).
//
// Each condition is a literal "gate g settles at value v".  The PI
// holds its final value ((FU1)/(NR1)/(π1)).  At every gate with a
// controlling value, a non-controlling on-path value requires each side
// input to be non-controlling ((FU2)/(NR2)/(π2)); a controlling one
// requires it only of the side pins the criterion names: none under FS,
// all under NR, and under π those ordered before the on-path pin
// ((π3)).  The on-path value is the parity of the inversions passed.
//
// Every per-path judge reads its conditions from this walk, through
// the criterion switch in core/classify.h or, below rd_core, with
// kAllSidePins.  The fast DFS (core/classify_dfs.h,
// netlist/compiled.cpp) and the frozen reference classifier keep their
// own copies on purpose, so the oracles share no code with them.
#pragma once

#include <cstdint>

#include "netlist/circuit.h"
#include "paths/path.h"

namespace rd {

/// Side-pin rules for a controlling on-path value, called as
/// constrains(gate, side_pin, on_path_pin): FS constrains none, NR all.
inline constexpr auto kNoSidePins = [](GateId, std::uint32_t,
                                       std::uint32_t) { return false; };
inline constexpr auto kAllSidePins = [](GateId, std::uint32_t,
                                        std::uint32_t) { return true; };

/// Calls visit(gate, value) for each of `path`'s literals in order:
/// the PI first, then lead by lead, each constrained side input in pin
/// order.  Stops and returns false at the first visit that returns
/// false; returns true after the last literal.
template <typename Constrains, typename Visit>
bool for_each_path_condition(const Circuit& circuit, const LogicalPath& path,
                             const Constrains& constrains, Visit&& visit) {
  if (!visit(path_pi(circuit, path.path), path.final_pi_value)) return false;
  bool on_path_value = path.final_pi_value;
  for (LeadId lead_id : path.path.leads) {
    const Lead& lead = circuit.lead(lead_id);
    const Gate& sink = circuit.gate(lead.sink);
    if (has_controlling_value(sink.type)) {
      const bool nc = noncontrolling_value(sink.type);
      for (std::uint32_t pin = 0; pin < sink.fanins.size(); ++pin) {
        if (pin == lead.pin) continue;
        const bool required =
            on_path_value == nc || constrains(lead.sink, pin, lead.pin);
        if (required && !visit(sink.fanins[pin], nc)) return false;
      }
    }
    if (inverts(sink.type)) on_path_value = !on_path_value;
  }
  return true;
}

}  // namespace rd
