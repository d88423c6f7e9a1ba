// Physical and logical path representation.
//
// Section II of the paper: a physical path is an alternating sequence
// of gates and leads from a PI to a PO; a logical path is a physical
// path plus a transition  x̄ → x  at its primary input.  Because a pair
// of gates can be connected by more than one lead (one gate feeding two
// pins of another), paths are identified by their *lead* sequence; the
// gate sequence is implied (driver of the first lead, then each lead's
// sink).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/circuit.h"

namespace rd {

/// A physical path: consecutive leads l0..lm-1 where driver(l0) is a PI,
/// sink(l_{i}) == driver(l_{i+1}), and sink(lm-1) is a PO marker gate.
struct PhysicalPath {
  std::vector<LeadId> leads;

  bool operator==(const PhysicalPath& other) const = default;
};

/// A logical path: physical path plus the *final* value x of the
/// transition x̄→x at its primary input.
struct LogicalPath {
  PhysicalPath path;
  bool final_pi_value = false;

  bool operator==(const LogicalPath& other) const = default;

  /// Canonical encoding (for ordered sets in tests): lead ids followed
  /// by the transition bit.
  std::vector<std::uint32_t> key() const {
    std::vector<std::uint32_t> encoded(path.leads.begin(), path.leads.end());
    encoded.push_back(final_pi_value ? 1u : 0u);
    return encoded;
  }

  /// Inverse of key(): the logical path a canonical key encodes.
  static LogicalPath from_key(const std::vector<std::uint32_t>& key) {
    return {PhysicalPath{{key.begin(), key.end() - 1}}, key.back() != 0};
  }
};

/// The primary input gate of a path.
GateId path_pi(const Circuit& circuit, const PhysicalPath& path);

/// The PO marker gate of a path.
GateId path_po(const Circuit& circuit, const PhysicalPath& path);

/// Stable value carried by lead `index` of the path when the PI's final
/// value is `final_pi_value` (parity of inversions of traversed gates).
bool value_on_lead(const Circuit& circuit, const PhysicalPath& path,
                   std::size_t index, bool final_pi_value);

/// Human-readable rendering: "a -R-> g1 -> g2 -> po" style.
std::string path_to_string(const Circuit& circuit, const LogicalPath& path);

/// Checks the structural chain invariants of a path (consecutive leads
/// connect, starts at a PI, ends at a PO marker).
bool is_valid_path(const Circuit& circuit, const PhysicalPath& path);

}  // namespace rd
