// Compiled execution view of a finalized Circuit: every per-gate and
// per-lead datum the classification hot path touches, flattened into
// contiguous CSR-style arrays.
//
// The analysis Circuit keeps a Gate object per node — a name string
// plus three views into its flat adjacency arrays — which is the right
// shape for construction and reporting but a poor one for the
// implication inner loop: examining one gate through it drags ~90 cold
// bytes through the cache.  A CompiledCircuit is built once per
// (circuit, input sort) and then shared read-only by every worker
// thread; it never mutates after construction, so no synchronization is
// needed.
//
// Three table families:
//
//   * adjacency — fanin gate ids and fanout lead ids with their
//     per-gate offsets, borrowed from the Circuit's own CSR arrays
//     (not copied), plus the fanout sinks as packed words and the
//     lead records;
//   * gate semantics — type, controlling/controlled values and
//     inversion parity predecoded into an 8-byte GateSemantics record,
//     so the implication engine never re-derives them from GateType;
//   * static local-implication tables — for every lead, the side
//     inputs of its sink that conditions (FU2)/(NR2)/(π2)(π3) force to
//     the non-controlling value, as two precomputed gate-id lists:
//     `side_all` (every side pin, used when the on-path value is
//     non-controlling, and by the non-robust criterion) and
//     `side_low` (only the side pins ordered before the on-path pin
//     by the input sort π, used by (π3)).  The lists preserve pin
//     order, so asserting them left to right reproduces the classic
//     per-pin loop assignment for assignment.
//
// Layering note: input sorts live above the netlist, so the π order is
// supplied as a plain pin-comparison callback (PinBefore) instead of an
// InputSort; core/classify adapts one to the other.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "netlist/circuit.h"
#include "netlist/gate_types.h"
#include "sim/value.h"

namespace rd {

/// Predecoded static semantics of one gate (8 bytes, hot).
struct GateSemantics {
  GateType type = GateType::kInput;

  /// Dispatch class for the implication engine's examine loop.
  enum class Kind : std::uint8_t {
    kInput,        // primary input: nothing to examine
    kSingle,       // BUF / OUTPUT: value equivalence
    kSingleInv,    // NOT: value equivalence modulo inversion
    kControlling,  // AND/OR/NAND/NOR
  };
  Kind kind = Kind::kInput;

  // Valid when kind == kControlling.
  Value3 ctrl = Value3::kUnknown;              // controlling input value
  Value3 noncontrolling = Value3::kUnknown;    // its complement
  Value3 out_controlled = Value3::kUnknown;    // output under a ctrl input
  Value3 out_noncontrolled = Value3::kUnknown; // output under all-nc inputs

  /// Input pin count, folded into the padding so the implication
  /// engine's counter bookkeeping needs no second offsets lookup.
  std::uint16_t fanin_count = 0;
};

/// Packed per-gate word: a gate id fused with every GateSemantics
/// field the implication engine's drain loop reads, in one 64-bit
/// value.  The propagation queue and the fanout streams carry these
/// words, so examining a popped gate decodes plain ALU bits instead of
/// chasing a second indexed load into the semantics table.
///
///   bits  0..31  gate id
///   bits 32..33  GateSemantics::Kind
///   bits 34..35  out_controlled        (Value3)
///   bits 36..37  out_noncontrolled     (Value3)
///   bits 38..39  ctrl                  (Value3; kUnknown if none)
///   bits 40..41  noncontrolling        (Value3; kUnknown if none)
///   bits 42..57  fanin count
using GateWord = std::uint64_t;

namespace gate_word {

inline GateId id(GateWord w) { return static_cast<GateId>(w); }
inline GateSemantics::Kind kind(GateWord w) {
  return static_cast<GateSemantics::Kind>((w >> 32) & 0x3u);
}
inline Value3 out_controlled(GateWord w) {
  return static_cast<Value3>((w >> 34) & 0x3u);
}
inline Value3 out_noncontrolled(GateWord w) {
  return static_cast<Value3>((w >> 36) & 0x3u);
}
inline Value3 ctrl(GateWord w) {
  return static_cast<Value3>((w >> 38) & 0x3u);
}
inline Value3 noncontrolling(GateWord w) {
  return static_cast<Value3>((w >> 40) & 0x3u);
}
inline std::uint32_t fanin_count(GateWord w) {
  return static_cast<std::uint32_t>((w >> 42) & 0xFFFFu);
}

inline GateWord make(GateId gate, const GateSemantics& sem) {
  auto bits = [](Value3 v) {
    return static_cast<GateWord>(static_cast<std::uint8_t>(v));
  };
  return static_cast<GateWord>(gate) |
         static_cast<GateWord>(sem.kind) << 32 |
         bits(sem.out_controlled) << 34 |
         bits(sem.out_noncontrolled) << 36 | bits(sem.ctrl) << 38 |
         bits(sem.noncontrolling) << 40 |
         static_cast<GateWord>(sem.fanin_count) << 42;
}

}  // namespace gate_word

/// A side-input constraint list as one contiguous view: the gates of
/// one precompiled table row plus the stable value (the sink's
/// non-controlling value) they are asserted to.  This is the shape the
/// classifiers consume a row in — the DFS walks it gate by gate — so
/// it is defined here, next to the tables, and handed out by
/// side_all_span()/side_low_span().
struct SideSpan {
  const GateId* gates = nullptr;
  std::uint32_t count = 0;
  bool nc = false;  // the value asserted on every listed gate

  const GateId* begin() const { return gates; }
  const GateId* end() const { return gates + count; }
};

/// One lead plus everything extend_through() needs about its sink
/// (the per-lead row of the static local-implication table).
struct CompiledLead {
  GateId driver = kNullGate;
  GateId sink = kNullGate;
  std::uint32_t pin = 0;

  bool sink_has_ctrl = false;
  bool sink_nc = false;          // sink's non-controlling value (if any)

  // [begin, begin+count) ranges into side_all_gates()/side_low_gates().
  std::uint32_t side_all_begin = 0;
  std::uint32_t side_all_count = 0;
  std::uint32_t side_low_begin = 0;
  std::uint32_t side_low_count = 0;
};

class CompiledCircuit {
 public:
  /// π order as a pin comparison: before(g, a, b) ⇔ pin `a` of gate `g`
  /// is ordered before pin `b` (InputSort::before has this shape).
  using PinBefore =
      std::function<bool(GateId, std::uint32_t, std::uint32_t)>;

  /// Compiles the adjacency, semantics and `side_all` tables.  The
  /// `side_low` tables are left empty (only the π criterion reads
  /// them).  `circuit` must be finalized and must outlive this object.
  explicit CompiledCircuit(const Circuit& circuit)
      : CompiledCircuit(circuit, nullptr) {}

  /// Additionally compiles the `side_low` tables under the pin order
  /// `before` (π3: side pins ordered before the on-path pin).
  CompiledCircuit(const Circuit& circuit, const PinBefore& before)
      : CompiledCircuit(circuit, before ? &before : nullptr) {}

  // Movable but not copyable: the table views below alias the backing
  // stores' heap buffers, which vector moves transfer intact; a copy
  // would leave the views pointing into the source object.  The CSR
  // adjacency views alias the source circuit's arrays, which is why the
  // circuit must outlive this object.
  CompiledCircuit(const CompiledCircuit&) = delete;
  CompiledCircuit& operator=(const CompiledCircuit&) = delete;
  CompiledCircuit(CompiledCircuit&&) = default;
  CompiledCircuit& operator=(CompiledCircuit&&) = default;

  const Circuit& source() const { return *circuit_; }
  std::size_t num_gates() const { return num_gates_; }
  std::size_t num_leads() const { return num_leads_; }
  bool has_low_order_tables() const { return has_low_order_tables_; }

  const GateSemantics& semantics(GateId id) const { return semantics_[id]; }
  /// Base of the semantics array (for loops that index it directly).
  const GateSemantics* semantics_begin() const { return semantics_; }
  /// Packed drain-loop word of every gate, indexed by GateId (the
  /// queue-push form of semantics()).
  const GateWord* gate_words() const { return gate_words_; }
  /// The single fanin of a kSingle/kSingleInv gate, indexed by GateId
  /// (kNullGate for other kinds): one dense load where the CSR chain
  /// fanin_offsets_ -> fanin_gates_ costs two dependent ones — the
  /// implication engine's single-input examine path is hot enough for
  /// the difference to show.
  const GateId* single_sources() const { return single_sources_; }
  const CompiledLead& lead(LeadId id) const { return leads_[id]; }

  // ---- CSR adjacency (pointer + count spans into flat arrays) ----

  const GateId* fanin_begin(GateId id) const {
    return fanin_gates_ + fanin_offsets_[id];
  }
  std::uint32_t fanin_count(GateId id) const {
    return fanin_offsets_[id + 1] - fanin_offsets_[id];
  }

  /// Fanout leads of `id`, in the circuit's fanout_leads order.  This
  /// span is the *canonical child order* of the shared path-prefix
  /// tree: the classifiers (serial and seed-sharded parallel) extend a
  /// tip through exactly this sequence, so path discovery order — and
  /// with it kept_keys truncation and every deterministic merge — is
  /// identical across engines and thread counts.  The order is a construction-time
  /// property of the Circuit (Circuit::add_gate wiring order) and is
  /// independent of any PinBefore: π orders reorder side-input
  /// *constraint* tables (side_low), never tree children.
  const LeadId* fanout_lead_begin(GateId id) const {
    return fanout_leads_ + fanout_offsets_[id];
  }
  /// Child `k` of tree node tip `id` under the canonical order.
  LeadId fanout_lead_at(GateId id, std::uint32_t k) const {
    return fanout_leads_[fanout_offsets_[id] + k];
  }
  /// Sink gates of those leads as packed GateWords, positionally
  /// parallel to the lead span — the implication engine's counter
  /// updates and queue pushes stream through one fused array (sink id,
  /// controlling value and the sink's full drain-loop semantics in a
  /// single 8-byte read) instead of random accesses into semantics().
  const GateWord* fanout_sink_begin(GateId id) const {
    return fanout_sinks_ + fanout_offsets_[id];
  }
  std::uint32_t fanout_count(GateId id) const {
    return fanout_offsets_[id + 1] - fanout_offsets_[id];
  }

  // ---- static local-implication tables ----

  /// Gates driving every side input of `lead`'s sink, in pin order.
  const GateId* side_all_begin(const CompiledLead& lead) const {
    return side_all_gates_ + lead.side_all_begin;
  }
  /// Gates driving the side inputs the π order ranks before the
  /// on-path pin, in pin order.  Valid only when compiled with a
  /// PinBefore.
  const GateId* side_low_begin(const CompiledLead& lead) const {
    return side_low_gates_ + lead.side_low_begin;
  }

  /// The same two table rows as one-read views (gates, count and the
  /// asserted non-controlling value together) — the shape the DFS
  /// consumes a row in.
  SideSpan side_all_span(const CompiledLead& lead) const {
    return SideSpan{side_all_gates_ + lead.side_all_begin,
                    lead.side_all_count, lead.sink_nc};
  }
  SideSpan side_low_span(const CompiledLead& lead) const {
    return SideSpan{side_low_gates_ + lead.side_low_begin,
                    lead.side_low_count, lead.sink_nc};
  }

 private:
  CompiledCircuit(const Circuit& circuit, const PinBefore* before);

  const Circuit* circuit_;
  bool has_low_order_tables_ = false;
  std::size_t num_gates_ = 0;
  std::size_t num_leads_ = 0;

  // The adjacency views point into the source circuit.  Every other
  // 32-bit table is in one exactly-sized backing store, everything
  // else (the 64-bit tables plus the semantics and lead records, which
  // are multiples of 8 bytes and align to it) in a second one, viewed
  // through the raw pointers below.  A per-table std::vector costs one
  // malloc each; the default classify path compiles privately per run,
  // and on microsecond circuits (c17-sized) that compile is
  // allocation-bound, so the build makes exactly two heap allocations
  // total.  The record arrays are created with per-element placement
  // new into their store64_ slices (single-object form — the array
  // form may prepend an unspecified cookie), which both starts their
  // lifetimes and keeps the access strictly aliasing-clean; both types are trivially destructible, so the
  // vector freeing the raw words is a complete teardown.
  std::vector<std::uint32_t> store32_;
  std::vector<std::uint64_t> store64_;
  GateSemantics* semantics_ = nullptr;  // num_gates records
  CompiledLead* leads_ = nullptr;       // num_leads records

  const std::uint32_t* fanin_offsets_ = nullptr;   // circuit's, num_gates + 1
  const std::uint32_t* fanout_offsets_ = nullptr;  // circuit's, num_gates + 1
  const GateId* fanin_gates_ = nullptr;            // circuit's, num_leads
  const LeadId* fanout_leads_ = nullptr;           // circuit's, num_leads
  const GateId* single_sources_ = nullptr;         // num_gates
  const GateId* side_all_gates_ = nullptr;
  const GateId* side_low_gates_ = nullptr;
  const GateWord* gate_words_ = nullptr;           // num_gates
  const GateWord* fanout_sinks_ = nullptr;
};

}  // namespace rd
