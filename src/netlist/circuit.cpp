#include "netlist/circuit.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

namespace rd {

Circuit::Circuit(const Circuit& other)
    : name_(other.name_),
      gates_(other.gates_),
      leads_(other.leads_),
      inputs_(other.inputs_),
      outputs_(other.outputs_),
      topo_(other.topo_),
      topo_rank_(other.topo_rank_),
      levels_(other.levels_),
      max_level_(other.max_level_),
      finalized_(other.finalized_),
      fanin_offsets_(other.fanin_offsets_),
      fanin_ids_(other.fanin_ids_),
      fanout_offsets_(other.fanout_offsets_),
      fanout_lead_ids_(other.fanout_lead_ids_) {
  rebind_views();
}

Circuit& Circuit::operator=(const Circuit& other) {
  if (this != &other) *this = Circuit(other);
  return *this;
}

void Circuit::rebind_views() {
  const bool has_leads = fanout_offsets_.size() == gates_.size() + 1;
  for (GateId id = 0; id < gates_.size(); ++id) {
    Gate& gate = gates_[id];
    const std::uint32_t begin = fanin_offsets_[id];
    const std::uint32_t count = fanin_offsets_[id + 1] - begin;
    gate.fanins = {fanin_ids_.data() + begin, count};
    if (!has_leads) continue;
    gate.fanin_leads = {begin, begin + count};
    gate.fanout_leads = {fanout_lead_ids_.data() + fanout_offsets_[id],
                         fanout_offsets_[id + 1] - fanout_offsets_[id]};
  }
}

GateId Circuit::add_input(std::string name) {
  return add_gate_impl(GateType::kInput, std::move(name), {});
}

GateId Circuit::add_gate(GateType type, std::string name,
                         std::span<const GateId> fanins) {
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
  return add_gate_impl(type, std::move(name), fanins);
}

GateId Circuit::add_output(std::string name, GateId driver) {
  return add_gate_impl(GateType::kOutput, std::move(name), {&driver, 1});
}

void Circuit::reserve(std::size_t gates, std::size_t fanins) {
  gates_.reserve(gates_.size() + gates);
  fanin_offsets_.reserve(fanin_offsets_.size() + gates);
  const GateId* before = fanin_ids_.data();
  fanin_ids_.reserve(fanin_ids_.size() + fanins);
  if (fanin_ids_.data() != before) rebind_views();
}

GateId Circuit::add_gate_impl(GateType type, std::string name,
                              std::span<const GateId> fanins) {
  check_not_finalized();
  for (GateId fanin : fanins) {
    if (fanin >= gates_.size())
      throw std::invalid_argument("fanin gate does not exist yet");
    if (gates_[fanin].type == GateType::kOutput)
      throw std::invalid_argument("PO marker gates must not drive anything");
  }
  // `fanins` may view this circuit's own array, which dangles once the
  // array grows, so a list that does not fit is copied out first.
  std::vector<GateId> own;
  const std::size_t begin = fanin_ids_.size();
  if (begin + fanins.size() > fanin_ids_.capacity()) {
    own.assign(fanins.begin(), fanins.end());
    fanins = own;
  }
  const GateId* before = fanin_ids_.data();
  fanin_ids_.resize(begin + fanins.size());
  std::copy(fanins.begin(), fanins.end(), fanin_ids_.begin() + begin);
  if (fanin_ids_.data() != before) rebind_views();

  const GateId id = static_cast<GateId>(gates_.size());
  fanin_offsets_.push_back(static_cast<std::uint32_t>(fanin_ids_.size()));
  gates_.push_back(Gate{type, std::move(name),
                        {fanin_ids_.data() + begin, fanins.size()}, {}, {}});
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
  // Leads number the input pins in gate order, so the fanin lead ids
  // run 0, 1, 2, ... along fanin_ids_ (each gate's fanin_leads is its
  // slice of that range); the fanout lists are a counting sort of the
  // same leads by driver, each list in lead-id order.
  const std::size_t num_gates = gates_.size();
  const std::size_t num_leads = fanin_ids_.size();
  fanout_offsets_.assign(num_gates + 1, 0);
  for (GateId fanin : fanin_ids_) ++fanout_offsets_[fanin + 1];
  for (GateId id = 0; id < num_gates; ++id) {
    if (gates_[id].type == GateType::kOutput &&
        fanout_offsets_[id + 1] != 0)
      throw std::invalid_argument("PO marker gate with fanout");
    fanout_offsets_[id + 1] += fanout_offsets_[id];
  }
  leads_.clear();
  leads_.reserve(num_leads);
  fanout_lead_ids_.resize(num_leads);
  std::vector<std::uint32_t> next(fanout_offsets_.begin(),
                                  fanout_offsets_.end() - 1);
  for (GateId id = 0; id < num_gates; ++id) {
    for (std::uint32_t pin = 0; pin < gates_[id].fanins.size(); ++pin) {
      const LeadId lead_id = static_cast<LeadId>(leads_.size());
      const GateId driver = gates_[id].fanins[pin];
      leads_.push_back(Lead{driver, id, pin});
      fanout_lead_ids_[next[driver]++] = lead_id;
    }
  }
  rebind_views();

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
  std::vector<GateId> fanins;
  for (GateId id : fanin_cone(po)) {
    const Gate& gate = gates_[id];
    fanins.clear();
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
        mapped = cone.add_gate(gate.type, gate.name, fanins);
        break;
    }
    remap.emplace(id, mapped);
  }
  cone.finalize();
  return cone;
}

}  // namespace rd
