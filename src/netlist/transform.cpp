#include "netlist/transform.h"

#include <span>
#include <stdexcept>
#include <vector>

namespace rd {

namespace {

/// Shared rebuild scaffolding: walk the source in topological order,
/// map each gate through `emit`, wire POs at the end.  `emit` gets the
/// mapped fanins as a view of one reused buffer, which it may edit.
template <typename Emit>
Circuit rebuild(const Circuit& source, const std::string& suffix,
                const Emit& emit) {
  Circuit result(source.name() + suffix);
  std::vector<GateId> map(source.num_gates(), kNullGate);
  std::vector<GateId> fanins;
  for (GateId id : source.topo_order()) {
    const Gate& gate = source.gate(id);
    if (gate.type == GateType::kInput) {
      map[id] = result.add_input(gate.name);
      continue;
    }
    if (gate.type == GateType::kOutput) {
      map[id] = result.add_output(gate.name, map[gate.fanins[0]]);
      continue;
    }
    fanins.clear();
    for (GateId fanin : gate.fanins) fanins.push_back(map[fanin]);
    map[id] = emit(result, gate, std::span<GateId>(fanins));
  }
  result.finalize();
  return result;
}

}  // namespace

Circuit decompose_fanin(const Circuit& circuit, std::size_t max_fanin) {
  if (max_fanin < 2)
    throw std::invalid_argument("decompose_fanin: max_fanin must be >= 2");
  std::size_t counter = 0;
  return rebuild(
      circuit, ".k" + std::to_string(max_fanin),
      [&](Circuit& out, const Gate& gate, std::span<GateId> fanins) {
        if (!has_controlling_value(gate.type) ||
            fanins.size() <= max_fanin)
          return out.add_gate(gate.type, gate.name, fanins);
        // Wide gate: non-inverting tree, inversion at the root.
        const GateType base =
            controlling_value(gate.type) ? GateType::kOr : GateType::kAnd;
        // Build all-but-root levels with the non-inverting base, then a
        // root of the original type over the last group.
        std::vector<GateId> level(fanins.begin(), fanins.end());
        while (level.size() > max_fanin) {
          std::vector<GateId> next;
          for (std::size_t i = 0; i < level.size(); i += max_fanin) {
            const std::size_t end = std::min(level.size(), i + max_fanin);
            if (end - i == 1) {
              next.push_back(level[i]);
              continue;
            }
            next.push_back(out.add_gate(
                base, gate.name + "_t" + std::to_string(counter++),
                std::span<const GateId>(level).subspan(i, end - i)));
          }
          level = std::move(next);
        }
        return out.add_gate(gate.type, gate.name, level);
      });
}

Circuit map_to_nand(const Circuit& circuit) {
  std::size_t counter = 0;
  return rebuild(
      circuit, ".nand",
      [&](Circuit& out, const Gate& gate, std::span<GateId> fanins) {
        auto inv = [&](GateId signal) {
          return out.add_gate(GateType::kNot,
                              gate.name + "_i" + std::to_string(counter++),
                              {signal});
        };
        switch (gate.type) {
          case GateType::kNot:
          case GateType::kBuf:
            return out.add_gate(gate.type, gate.name, fanins);
          case GateType::kNand:
            return out.add_gate(GateType::kNand, gate.name, fanins);
          case GateType::kAnd: {
            const GateId nand = out.add_gate(
                GateType::kNand, gate.name + "_n" + std::to_string(counter++),
                fanins);
            return out.add_gate(GateType::kNot, gate.name, {nand});
          }
          case GateType::kOr: {
            // OR(x) = NAND(~x).
            for (GateId& signal : fanins) signal = inv(signal);
            return out.add_gate(GateType::kNand, gate.name, fanins);
          }
          case GateType::kNor: {
            for (GateId& signal : fanins) signal = inv(signal);
            const GateId nand = out.add_gate(
                GateType::kNand, gate.name + "_n" + std::to_string(counter++),
                fanins);
            return out.add_gate(GateType::kNot, gate.name, {nand});
          }
          default:
            throw std::logic_error("map_to_nand: unexpected gate type");
        }
      });
}

Circuit strip_buffers(const Circuit& circuit) {
  Circuit result(circuit.name() + ".nobuf");
  std::vector<GateId> map(circuit.num_gates(), kNullGate);
  std::vector<GateId> fanins;
  for (GateId id : circuit.topo_order()) {
    const Gate& gate = circuit.gate(id);
    switch (gate.type) {
      case GateType::kInput:
        map[id] = result.add_input(gate.name);
        break;
      case GateType::kOutput:
        map[id] = result.add_output(gate.name, map[gate.fanins[0]]);
        break;
      case GateType::kBuf:
        map[id] = map[gate.fanins[0]];  // rewire through
        break;
      default: {
        fanins.clear();
        for (GateId fanin : gate.fanins) fanins.push_back(map[fanin]);
        map[id] = result.add_gate(gate.type, gate.name, fanins);
        break;
      }
    }
  }
  result.finalize();
  return result;
}

Circuit with_gate_type(const Circuit& circuit, GateId id, GateType type) {
  if (id >= circuit.num_gates())
    throw std::invalid_argument("with_gate_type: no such gate");
  const Gate& target = circuit.gate(id);
  if (target.type == GateType::kInput || target.type == GateType::kOutput ||
      type == GateType::kInput || type == GateType::kOutput)
    throw std::invalid_argument("with_gate_type: only logic gates");
  if ((type == GateType::kNot || type == GateType::kBuf) &&
      target.fanins.size() != 1)
    throw std::invalid_argument("with_gate_type: NOT/BUF take one fan-in");

  // Insertion order is a valid construction order (add_gate requires
  // fanins to exist), so replaying gates by id preserves every id.
  Circuit result(circuit.name());
  for (GateId g = 0; g < circuit.num_gates(); ++g) {
    const Gate& gate = circuit.gate(g);
    switch (gate.type) {
      case GateType::kInput:
        result.add_input(gate.name);
        break;
      case GateType::kOutput:
        result.add_output(gate.name, gate.fanins[0]);
        break;
      default:
        result.add_gate(g == id ? type : gate.type, gate.name, gate.fanins);
        break;
    }
  }
  result.finalize();
  return result;
}

}  // namespace rd
