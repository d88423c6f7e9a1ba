#include "netlist/circuit.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

namespace rd {

GateId Circuit::add_input(std::string name) {
  return add_gate_impl(GateType::kInput, std::move(name), {});
}

GateId Circuit::add_gate(GateType type, std::string name,
                         std::vector<GateId> fanins) {
  switch (type) {
    case GateType::kInput:
      throw std::invalid_argument("use add_input for primary inputs");
    case GateType::kOutput:
      throw std::invalid_argument("use add_output for primary outputs");
    case GateType::kBuf:
    case GateType::kNot:
      if (fanins.size() != 1)
        throw std::invalid_argument("NOT/BUF gate needs exactly one fanin");
      break;
    case GateType::kAnd:
    case GateType::kOr:
    case GateType::kNand:
    case GateType::kNor:
      if (fanins.empty())
        throw std::invalid_argument("logic gate needs at least one fanin");
      break;
  }
  return add_gate_impl(type, std::move(name), std::move(fanins));
}

GateId Circuit::add_output(std::string name, GateId driver) {
  return add_gate_impl(GateType::kOutput, std::move(name), {driver});
}

GateId Circuit::add_gate_impl(GateType type, std::string name,
                              std::vector<GateId> fanins) {
  check_not_finalized();
  for (GateId fanin : fanins) {
    if (fanin >= gates_.size())
      throw std::invalid_argument("fanin gate does not exist yet");
    if (gates_[fanin].type == GateType::kOutput)
      throw std::invalid_argument("PO marker gates must not drive anything");
  }
  const GateId id = static_cast<GateId>(gates_.size());
  Gate gate;
  gate.type = type;
  gate.name = std::move(name);
  gate.fanins = std::move(fanins);
  gates_.push_back(std::move(gate));
  if (type == GateType::kInput) inputs_.push_back(id);
  if (type == GateType::kOutput) outputs_.push_back(id);
  return id;
}

void Circuit::check_not_finalized() const {
  if (finalized_)
    throw std::logic_error("circuit is finalized; no further edits allowed");
}

void Circuit::finalize() {
  if (finalized_) return;

  // Leads and fanouts.  Construction order (add_gate checks fanins exist)
  // already guarantees acyclicity, and gate ids are a topological order;
  // we still recompute a topo order explicitly for clarity and to catch
  // internal errors.
  // Fanouts are counted first so every array below is sized exactly.
  std::vector<std::uint32_t> fanout_count(gates_.size(), 0);
  std::size_t num_leads = 0;
  for (const Gate& gate : gates_) {
    num_leads += gate.fanins.size();
    for (GateId fanin : gate.fanins) ++fanout_count[fanin];
  }
  leads_.clear();
  leads_.reserve(num_leads);
  for (GateId id = 0; id < gates_.size(); ++id) {
    gates_[id].fanin_leads.clear();
    gates_[id].fanout_leads.clear();
    gates_[id].fanout_leads.reserve(fanout_count[id]);
  }
  for (GateId id = 0; id < gates_.size(); ++id) {
    Gate& gate = gates_[id];
    gate.fanin_leads.reserve(gate.fanins.size());
    for (std::uint32_t pin = 0; pin < gate.fanins.size(); ++pin) {
      const LeadId lead_id = static_cast<LeadId>(leads_.size());
      leads_.push_back(Lead{gate.fanins[pin], id, pin});
      gate.fanin_leads.push_back(lead_id);
      gates_[gate.fanins[pin]].fanout_leads.push_back(lead_id);
    }
  }

  for (GateId id = 0; id < gates_.size(); ++id) {
    const Gate& gate = gates_[id];
    if (gate.type == GateType::kOutput && !gate.fanout_leads.empty())
      throw std::invalid_argument("PO marker gate with fanout");
  }

  // Topological order (gate ids already are one; Kahn as a check).
  topo_.clear();
  topo_.reserve(gates_.size());
  std::vector<std::uint32_t> pending(gates_.size());
  for (GateId id = 0; id < gates_.size(); ++id)
    pending[id] = static_cast<std::uint32_t>(gates_[id].fanins.size());
  std::vector<GateId> ready;
  for (GateId id = 0; id < gates_.size(); ++id)
    if (pending[id] == 0) ready.push_back(id);
  while (!ready.empty()) {
    const GateId id = ready.back();
    ready.pop_back();
    topo_.push_back(id);
    for (LeadId lead_id : gates_[id].fanout_leads) {
      const GateId sink = leads_[lead_id].sink;
      if (--pending[sink] == 0) ready.push_back(sink);
    }
  }
  if (topo_.size() != gates_.size())
    throw std::invalid_argument("circuit contains a cycle");

  topo_rank_.assign(gates_.size(), 0);
  for (std::uint32_t rank = 0; rank < topo_.size(); ++rank)
    topo_rank_[topo_[rank]] = rank;

  // Levels: longest distance from a PI.
  levels_.assign(gates_.size(), 0);
  max_level_ = 0;
  for (GateId id : topo_) {
    std::uint32_t level = 0;
    for (GateId fanin : gates_[id].fanins)
      level = std::max(level, levels_[fanin] + 1);
    levels_[id] = level;
    max_level_ = std::max(max_level_, level);
  }

  finalized_ = true;
}

std::size_t Circuit::num_logic_gates() const {
  std::size_t count = 0;
  for (const Gate& gate : gates_)
    if (gate.type != GateType::kInput && gate.type != GateType::kOutput)
      ++count;
  return count;
}

std::vector<GateId> Circuit::fanin_cone(GateId root) const {
  std::vector<bool> in_cone(gates_.size(), false);
  std::vector<GateId> stack{root};
  in_cone[root] = true;
  while (!stack.empty()) {
    const GateId id = stack.back();
    stack.pop_back();
    for (GateId fanin : gates_[id].fanins) {
      if (!in_cone[fanin]) {
        in_cone[fanin] = true;
        stack.push_back(fanin);
      }
    }
  }
  std::vector<GateId> cone;
  for (GateId id : topo_)
    if (in_cone[id]) cone.push_back(id);
  return cone;
}

Circuit Circuit::extract_cone(GateId po) const {
  if (gates_[po].type != GateType::kOutput)
    throw std::invalid_argument("extract_cone requires a PO marker gate");
  Circuit cone(name_ + "." + gates_[po].name);
  std::unordered_map<GateId, GateId> remap;
  for (GateId id : fanin_cone(po)) {
    const Gate& gate = gates_[id];
    std::vector<GateId> fanins;
    fanins.reserve(gate.fanins.size());
    for (GateId fanin : gate.fanins) fanins.push_back(remap.at(fanin));
    GateId mapped;
    switch (gate.type) {
      case GateType::kInput:
        mapped = cone.add_input(gate.name);
        break;
      case GateType::kOutput:
        mapped = cone.add_output(gate.name, fanins.front());
        break;
      default:
        mapped = cone.add_gate(gate.type, gate.name, std::move(fanins));
        break;
    }
    remap.emplace(id, mapped);
  }
  cone.finalize();
  return cone;
}

}  // namespace rd
