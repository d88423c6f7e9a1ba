// Frozen pre-compilation implication engine — the PR-3-era trail
// engine, kept verbatim as the differential oracle for the compiled
// hot path (sim/implication.h).
//
// Do not optimize this class: its point is to preserve the exact event
// stream (assignments, propagations, conflicts, backward derivations)
// of the original engine so tests can assert that the compiled engine
// is bit-identical.  Semantics are documented in sim/implication.h.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "netlist/circuit.h"
#include "sim/implication.h"
#include "sim/value.h"

namespace rd {

class ReferenceImplicationEngine {
 public:
  explicit ReferenceImplicationEngine(const Circuit& circuit,
                                      bool backward_implications = true);

  bool assign(GateId id, Value3 value);
  std::size_t mark() const { return trail_.size(); }
  void undo_to(std::size_t mark);
  Value3 value(GateId id) const { return values_[id]; }
  std::size_t num_assigned() const { return trail_.size(); }
  const ImplicationStats& stats() const { return stats_; }

 private:
  void set_value(GateId id, Value3 value);
  bool examine(GateId id);
  bool propagate();

  const Circuit* circuit_;
  bool backward_implications_;
  std::vector<Value3> values_;
  std::vector<GateId> trail_;
  std::vector<GateId> queue_;
  std::size_t queue_head_ = 0;
  ImplicationStats stats_;
};

}  // namespace rd
