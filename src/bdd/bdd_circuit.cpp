#include "bdd/bdd_circuit.h"

#include <stdexcept>
#include <unordered_map>

#include "paths/counting.h"

namespace rd {

CircuitBdds::CircuitBdds(const Circuit& circuit, BddManager& manager)
    : circuit_(&circuit), manager_(&manager) {
  if (manager.num_vars() < circuit.inputs().size())
    throw std::invalid_argument("CircuitBdds: manager has too few variables");
  refs_.assign(circuit.num_gates(), kBddFalse);
  for (std::size_t i = 0; i < circuit.inputs().size(); ++i)
    refs_[circuit.inputs()[i]] = manager.var(static_cast<std::uint32_t>(i));
  for (GateId id : circuit.topo_order()) {
    const Gate& gate = circuit.gate(id);
    switch (gate.type) {
      case GateType::kInput:
        break;
      case GateType::kOutput:
      case GateType::kBuf:
        refs_[id] = refs_[gate.fanins[0]];
        break;
      case GateType::kNot:
        refs_[id] = manager.bdd_not(refs_[gate.fanins[0]]);
        break;
      case GateType::kAnd:
      case GateType::kNand: {
        BddRef acc = kBddTrue;
        for (GateId fanin : gate.fanins)
          acc = manager.bdd_and(acc, refs_[fanin]);
        refs_[id] = gate.type == GateType::kNand ? manager.bdd_not(acc) : acc;
        break;
      }
      case GateType::kOr:
      case GateType::kNor: {
        BddRef acc = kBddFalse;
        for (GateId fanin : gate.fanins)
          acc = manager.bdd_or(acc, refs_[fanin]);
        refs_[id] = gate.type == GateType::kNor ? manager.bdd_not(acc) : acc;
        break;
      }
    }
  }
}

std::optional<CircuitBdds> CircuitBdds::try_build(const Circuit& circuit,
                                                  BddManager& manager) {
  try {
    return CircuitBdds(circuit, manager);
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
}

std::optional<bool> check_equivalent(const Circuit& a, const Circuit& b,
                                     std::size_t max_nodes) {
  if (a.inputs().size() != b.inputs().size() ||
      a.outputs().size() != b.outputs().size())
    return false;
  // Match b's PIs to a's by name.
  std::unordered_map<std::string, std::size_t> a_pi_index;
  for (std::size_t i = 0; i < a.inputs().size(); ++i)
    a_pi_index.emplace(a.gate(a.inputs()[i]).name, i);

  BddManager manager(static_cast<std::uint32_t>(a.inputs().size()), max_nodes);
  try {
    const CircuitBdds a_bdds(a, manager);
    // Build b's gate BDDs with remapped variables.
    std::vector<BddRef> b_refs(b.num_gates(), kBddFalse);
    for (GateId pi : b.inputs()) {
      const auto it = a_pi_index.find(b.gate(pi).name);
      if (it == a_pi_index.end()) return false;  // PI name mismatch
      b_refs[pi] = manager.var(static_cast<std::uint32_t>(it->second));
    }
    for (GateId id : b.topo_order()) {
      const Gate& gate = b.gate(id);
      switch (gate.type) {
        case GateType::kInput:
          break;
        case GateType::kOutput:
        case GateType::kBuf:
          b_refs[id] = b_refs[gate.fanins[0]];
          break;
        case GateType::kNot:
          b_refs[id] = manager.bdd_not(b_refs[gate.fanins[0]]);
          break;
        case GateType::kAnd:
        case GateType::kNand: {
          BddRef acc = kBddTrue;
          for (GateId fanin : gate.fanins)
            acc = manager.bdd_and(acc, b_refs[fanin]);
          b_refs[id] =
              gate.type == GateType::kNand ? manager.bdd_not(acc) : acc;
          break;
        }
        case GateType::kOr:
        case GateType::kNor: {
          BddRef acc = kBddFalse;
          for (GateId fanin : gate.fanins)
            acc = manager.bdd_or(acc, b_refs[fanin]);
          b_refs[id] =
              gate.type == GateType::kNor ? manager.bdd_not(acc) : acc;
          break;
        }
      }
    }
    // Match POs by name.
    std::unordered_map<std::string, BddRef> b_po;
    for (GateId po : b.outputs()) b_po.emplace(b.gate(po).name, b_refs[po]);
    for (GateId po : a.outputs()) {
      const auto it = b_po.find(a.gate(po).name);
      if (it == b_po.end()) return false;
      if (a_bdds.gate(po) != it->second) return false;  // canonical compare
    }
    return true;
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
}

std::optional<bool> bdd_sensitizable(const Circuit& circuit,
                                     const CircuitBdds& bdds,
                                     const LogicalPath& path,
                                     Criterion criterion,
                                     const InputSort* sort) {
  BddManager& manager = bdds.manager();
  try {
    BddRef constraint = kBddTrue;
    for_each_path_condition(
        circuit, path, criterion, sort, [&](GateId gate, bool value) {
          constraint = manager.bdd_and(
              constraint,
              manager.bdd_xnor(bdds.gate(gate), value ? kBddTrue : kBddFalse));
          return constraint != kBddFalse;
        });
    return constraint != kBddFalse;
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
}

std::optional<std::uint64_t> bdd_exact_kept_count(const Circuit& circuit,
                                                  Criterion criterion,
                                                  const InputSort* sort,
                                                  std::uint64_t max_paths,
                                                  std::size_t max_nodes) {
  BddManager manager(static_cast<std::uint32_t>(circuit.inputs().size()),
                     max_nodes);
  const auto bdds = CircuitBdds::try_build(circuit, manager);
  if (!bdds.has_value()) return std::nullopt;

  std::uint64_t kept = 0;
  bool overrun = false;
  const bool complete = enumerate_paths(
      circuit,
      [&](const PhysicalPath& physical) {
        for (const bool final_value : {false, true}) {
          const LogicalPath logical{physical, final_value};
          const auto verdict =
              bdd_sensitizable(circuit, *bdds, logical, criterion, sort);
          if (!verdict.has_value()) {
            overrun = true;
            return;
          }
          if (*verdict) ++kept;
        }
      },
      max_paths / 2 + 1);
  if (!complete || overrun) return std::nullopt;
  return kept;
}

}  // namespace rd
