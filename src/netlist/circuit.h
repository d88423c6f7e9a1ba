// Combinational gate-level netlist.
//
// Model from Section II of the paper: a circuit consists of gates
// (simple gates, primary inputs, primary outputs) and leads.  A *lead*
// is a wire connecting the output pin of one gate to a specific input
// pin of another gate; a gate with fanout drives one lead per sink pin.
// Physical paths are alternating gate/lead sequences from a PI to a PO,
// so leads — not driver/sink gate pairs — are the unit of path identity.
//
// A Circuit is built incrementally (add_input / add_gate / add_output)
// and then finalize()d, which checks structural invariants and computes
// fanouts, lead ids, topological order and levels.  All analysis code
// requires a finalized circuit.
//
// The adjacency is stored once, as flat CSR arrays owned by the
// Circuit; each Gate's fanins and fanout leads are std::span views into
// them, and CompiledCircuit borrows the same arrays instead of copying
// them.  Lead ids number input pins in gate order, so a gate's fanin
// leads are a range of consecutive ids with no storage at all.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <ranges>
#include <span>
#include <string>
#include <vector>

#include "netlist/gate_types.h"

namespace rd {

using GateId = std::uint32_t;
using LeadId = std::uint32_t;

constexpr GateId kNullGate = std::numeric_limits<GateId>::max();
constexpr LeadId kNullLead = std::numeric_limits<LeadId>::max();

/// One wire from a driver gate's output pin to input pin `pin` of `sink`.
struct Lead {
  GateId driver = kNullGate;
  GateId sink = kNullGate;
  std::uint32_t pin = 0;  // position within sink's fanin list
};

/// One gate.  The fanin and fanout lists view the owning Circuit's CSR
/// arrays, so a Gate is valid only as long as the Circuit it came from.
struct Gate {
  GateType type = GateType::kInput;
  std::string name;
  std::span<const GateId> fanins;  // driver gates, by input pin order
  // Set by finalize: the lead on each input pin (the ids
  // fanin_offsets()[g] .. fanin_offsets()[g + 1]), and the leads this
  // gate drives.
  std::ranges::iota_view<LeadId, LeadId> fanin_leads;
  std::span<const LeadId> fanout_leads;
};

class Circuit {
 public:
  /// Optional circuit name (benchmark id), free-form.
  explicit Circuit(std::string name = {}) : name_(std::move(name)) {}

  // A copy owns its own arrays and re-points every Gate's views at
  // them; the defaulted moves keep the views valid.
  Circuit(const Circuit& other);
  Circuit& operator=(const Circuit& other);
  Circuit(Circuit&&) = default;
  Circuit& operator=(Circuit&&) = default;

  // ---- construction (before finalize) ----

  /// Adds a primary input gate.
  GateId add_input(std::string name);

  /// Adds a logic gate with the given fanins (which must already exist).
  /// NOT/BUF take exactly one fanin, AND/OR/NAND/NOR at least one.
  GateId add_gate(GateType type, std::string name,
                  std::span<const GateId> fanins);
  GateId add_gate(GateType type, std::string name,
                  std::initializer_list<GateId> fanins) {
    return add_gate(type, std::move(name),
                    std::span<const GateId>(fanins.begin(), fanins.size()));
  }

  /// Adds a primary-output marker gate fed by `driver`.
  GateId add_output(std::string name, GateId driver);

  /// Sizes the arrays for `gates` more gates with `fanins` more fanins
  /// in total, so a reader that knows its netlist's size builds it
  /// without regrowth.
  void reserve(std::size_t gates, std::size_t fanins);

  /// Validates structure and computes fanouts, leads, topological order
  /// and levels.  Throws std::invalid_argument on malformed circuits
  /// (cycles, bad arity, dangling outputs).  Idempotent.
  void finalize();

  bool finalized() const { return finalized_; }

  // ---- read access ----

  const std::string& name() const { return name_; }
  std::size_t num_gates() const { return gates_.size(); }
  std::size_t num_leads() const { return leads_.size(); }
  const Gate& gate(GateId id) const { return gates_[id]; }
  const Lead& lead(LeadId id) const { return leads_[id]; }
  const std::vector<GateId>& inputs() const { return inputs_; }
  const std::vector<GateId>& outputs() const { return outputs_; }

  /// Gates in a topological order (fanins before fanouts).
  const std::vector<GateId>& topo_order() const { return topo_; }

  /// Longest gate-count distance from any PI (PIs have level 0).
  std::uint32_t level(GateId id) const { return levels_[id]; }
  std::uint32_t max_level() const { return max_level_; }

  /// Number of logic gates (excluding PI and PO marker gates), the count
  /// usually quoted for benchmark circuits.
  std::size_t num_logic_gates() const;

  /// Gate ids in the fan-in cone of `root` (inclusive), in topological
  /// order.  Used to split multi-output circuits into output cones.
  std::vector<GateId> fanin_cone(GateId root) const;

  /// Extracts the single-output subcircuit feeding primary output `po`
  /// (a PO marker gate).  Gate names are preserved; unused PIs dropped.
  Circuit extract_cone(GateId po) const;

  /// Position of gate `g` in topo_order() — usable as a dense index.
  std::uint32_t topo_rank(GateId id) const { return topo_rank_[id]; }

  // ---- flat adjacency (finalized circuits) ----
  //
  // The arrays behind the Gate views: gate g's fanins are
  // fanin_ids()[fanin_offsets()[g] .. fanin_offsets()[g + 1]) and its
  // fanout leads are the same slice of fanout_lead_ids() under
  // fanout_offsets().  Lead ids number input pins in gate order, so
  // the lead on pin p of gate g is fanin_offsets()[g] + p.

  std::span<const std::uint32_t> fanin_offsets() const {
    return fanin_offsets_;
  }
  std::span<const GateId> fanin_ids() const { return fanin_ids_; }
  std::span<const std::uint32_t> fanout_offsets() const {
    return fanout_offsets_;
  }
  std::span<const LeadId> fanout_lead_ids() const { return fanout_lead_ids_; }

 private:
  GateId add_gate_impl(GateType type, std::string name,
                       std::span<const GateId> fanins);
  void check_not_finalized() const;
  /// Points every Gate's views at this circuit's arrays (the lead
  /// views only once finalize() has filled them).
  void rebind_views();

  std::string name_;
  std::vector<Gate> gates_;
  std::vector<Lead> leads_;
  std::vector<GateId> inputs_;
  std::vector<GateId> outputs_;
  std::vector<GateId> topo_;
  std::vector<std::uint32_t> topo_rank_;
  std::vector<std::uint32_t> levels_;
  std::uint32_t max_level_ = 0;
  bool finalized_ = false;

  // CSR adjacency (the copy constructor lists every member).
  std::vector<std::uint32_t> fanin_offsets_{0};  // num_gates + 1
  std::vector<GateId> fanin_ids_;                // one per lead
  std::vector<std::uint32_t> fanout_offsets_;    // num_gates + 1 (finalize)
  std::vector<LeadId> fanout_lead_ids_;          // one per lead (finalize)
};

}  // namespace rd
