#include "netlist/cone_signature.h"

#include <stdexcept>
#include <vector>

namespace rd {

namespace {

/// Post-order DFS from `po` over fan-ins in pin order: the canonical
/// gate sequence (fanins always precede their gate, so the sequence is
/// also a valid construction order).  Iterative — cone depth is
/// unbounded on chained circuits like the carry mesh.
std::vector<GateId> canonical_cone_order(const Circuit& circuit, GateId po) {
  std::vector<GateId> order;
  std::vector<char> visited(circuit.num_gates(), 0);
  // Frame: (gate, next fanin pin to descend into).
  std::vector<std::pair<GateId, std::uint32_t>> stack;
  visited[po] = 1;
  stack.emplace_back(po, 0);
  while (!stack.empty()) {
    auto& [gate, pin] = stack.back();
    const auto& fanins = circuit.gate(gate).fanins;
    if (pin < fanins.size()) {
      const GateId fanin = fanins[pin++];
      if (!visited[fanin]) {
        visited[fanin] = 1;
        stack.emplace_back(fanin, 0);
      }
    } else {
      order.push_back(gate);
      stack.pop_back();
    }
  }
  return order;
}

void append_u32(std::vector<std::uint8_t>& out, std::uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8)
    out.push_back(static_cast<std::uint8_t>(value >> shift));
}

}  // namespace

ConeExtraction extract_cone_canonical(const Circuit& circuit, GateId po) {
  if (!circuit.finalized())
    throw std::invalid_argument(
        "extract_cone_canonical requires a finalized circuit");
  if (po >= circuit.num_gates() ||
      circuit.gate(po).type != GateType::kOutput)
    throw std::invalid_argument(
        "extract_cone_canonical requires a PO marker gate");

  ConeExtraction out;
  out.cone = Circuit(circuit.name() + "." + circuit.gate(po).name);
  std::vector<GateId> cone_id(circuit.num_gates(), kNullGate);
  std::vector<GateId> fanins;
  for (const GateId id : canonical_cone_order(circuit, po)) {
    const Gate& gate = circuit.gate(id);
    fanins.clear();
    for (const GateId fanin : gate.fanins) fanins.push_back(cone_id[fanin]);
    GateId mapped;
    switch (gate.type) {
      case GateType::kInput:
        mapped = out.cone.add_input(gate.name);
        break;
      case GateType::kOutput:
        mapped = out.cone.add_output(gate.name, fanins.front());
        break;
      default:
        mapped = out.cone.add_gate(gate.type, gate.name, fanins);
        break;
    }
    cone_id[id] = mapped;
    out.parent_gate.push_back(id);
  }
  out.cone.finalize();

  // Cone pin order equals parent pin order (fanins are copied in
  // order), so each cone lead maps through its sink gate's pin.
  out.parent_lead.resize(out.cone.num_leads(), kNullLead);
  for (LeadId l = 0; l < out.cone.num_leads(); ++l) {
    const Lead& lead = out.cone.lead(l);
    const Gate& parent_sink = circuit.gate(out.parent_gate[lead.sink]);
    out.parent_lead[l] = parent_sink.fanin_leads[lead.pin];
  }
  return out;
}

std::vector<std::uint8_t> cone_canonical_bytes(const Circuit& cone,
                                               std::string_view sort_spec) {
  std::vector<std::uint8_t> out;
  out.reserve(16 + sort_spec.size() + cone.num_gates() * 8);
  out.push_back(kConeEncodingVersion);
  out.push_back(static_cast<std::uint8_t>(sort_spec.size()));
  out.insert(out.end(), sort_spec.begin(), sort_spec.end());
  append_u32(out, static_cast<std::uint32_t>(cone.num_gates()));
  for (GateId id = 0; id < cone.num_gates(); ++id) {
    const Gate& gate = cone.gate(id);
    out.push_back(static_cast<std::uint8_t>(gate.type));
    append_u32(out, static_cast<std::uint32_t>(gate.fanins.size()));
    for (const GateId fanin : gate.fanins) append_u32(out, fanin);
  }
  return out;
}

std::uint64_t cone_signature(const std::vector<std::uint8_t>& canonical) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const std::uint8_t byte : canonical) {
    hash ^= byte;
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace rd
