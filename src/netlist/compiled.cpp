#include "netlist/compiled.h"

#include <new>
#include <stdexcept>
#include <type_traits>

namespace rd {

namespace {

GateSemantics::Kind kind_of(GateType type) {
  switch (type) {
    case GateType::kInput:
      return GateSemantics::Kind::kInput;
    case GateType::kOutput:
    case GateType::kBuf:
      return GateSemantics::Kind::kSingle;
    case GateType::kNot:
      return GateSemantics::Kind::kSingleInv;
    default:
      return GateSemantics::Kind::kControlling;
  }
}

}  // namespace

CompiledCircuit::CompiledCircuit(const Circuit& circuit,
                                 const PinBefore* before)
    : circuit_(&circuit), has_low_order_tables_(before != nullptr) {
  if (!circuit.finalized())
    throw std::invalid_argument("CompiledCircuit requires a finalized circuit");

  const std::size_t num_gates = circuit.num_gates();
  const std::size_t num_leads = circuit.num_leads();

  // Pre-pass: exact table sizes.  Every lead into a controlling-value
  // sink with f fanins contributes f-1 side_all entries, and a gate
  // with f fanins has f such leads, so its rows total f*(f-1); the
  // side_low rows are a subset, so side_all's size doubles as their
  // capacity when a pin order is present.
  std::size_t fanin_total = 0;
  std::size_t fanout_total = 0;
  std::size_t side_all_total = 0;
  for (GateId id = 0; id < num_gates; ++id) {
    const Gate& gate = circuit.gate(id);
    const std::size_t f = gate.fanins.size();
    fanin_total += f;
    fanout_total += gate.fanout_leads.size();
    if (has_controlling_value(gate.type) && f > 0)
      side_all_total += f * (f - 1);
  }
  const std::size_t side_low_cap = before != nullptr ? side_all_total : 0;

  static_assert(sizeof(GateSemantics) == 8 && alignof(GateSemantics) <= 8);
  static_assert(sizeof(CompiledLead) % 8 == 0 && alignof(CompiledLead) <= 8);
  static_assert(std::is_trivially_destructible_v<GateSemantics> &&
                std::is_trivially_destructible_v<CompiledLead>);
  constexpr std::size_t kLeadWords = sizeof(CompiledLead) / 8;

  num_gates_ = num_gates;
  num_leads_ = num_leads;
  store32_.resize((num_gates + 1) * 2 + num_gates + fanin_total +
                  fanout_total + side_all_total + side_low_cap);
  store64_.resize(num_gates + num_leads * kLeadWords + num_gates +
                  fanout_total);
  semantics_ = reinterpret_cast<GateSemantics*>(store64_.data());
  leads_ = reinterpret_cast<CompiledLead*>(store64_.data() + num_gates);
  for (std::size_t i = 0; i < num_gates; ++i) new (semantics_ + i)
      GateSemantics();
  for (std::size_t i = 0; i < num_leads; ++i) new (leads_ + i)
      CompiledLead();
  std::uint32_t* const fanin_offsets = store32_.data();
  std::uint32_t* const fanout_offsets = fanin_offsets + num_gates + 1;
  std::uint32_t* const single_sources = fanout_offsets + num_gates + 1;
  std::uint32_t* const fanin_gates = single_sources + num_gates;
  std::uint32_t* const fanout_leads = fanin_gates + fanin_total;
  std::uint32_t* const side_all_gates = fanout_leads + fanout_total;
  std::uint32_t* const side_low_gates = side_all_gates + side_all_total;
  std::uint64_t* const gate_words =
      store64_.data() + num_gates + num_leads * kLeadWords;
  std::uint64_t* const fanout_sinks = gate_words + num_gates;
  fanin_offsets_ = fanin_offsets;
  fanout_offsets_ = fanout_offsets;
  single_sources_ = single_sources;
  fanin_gates_ = fanin_gates;
  fanout_leads_ = fanout_leads;
  side_all_gates_ = side_all_gates;
  side_low_gates_ = side_low_gates;
  gate_words_ = gate_words;
  fanout_sinks_ = fanout_sinks;

  fanin_offsets[0] = 0;
  fanout_offsets[0] = 0;
  for (GateId id = 0; id < num_gates; ++id) {
    const Gate& gate = circuit.gate(id);
    GateSemantics& sem = semantics_[id];
    sem.type = gate.type;
    sem.kind = kind_of(gate.type);
    if (sem.kind == GateSemantics::Kind::kControlling) {
      sem.ctrl = to_value3(controlling_value(gate.type));
      sem.noncontrolling = negate(sem.ctrl);
      sem.out_controlled = to_value3(controlled_output(gate.type));
      sem.out_noncontrolled = to_value3(noncontrolled_output(gate.type));
    }
    sem.fanin_count = static_cast<std::uint16_t>(gate.fanins.size());
    fanin_offsets[id + 1] =
        fanin_offsets[id] + static_cast<std::uint32_t>(gate.fanins.size());
    fanout_offsets[id + 1] =
        fanout_offsets[id] +
        static_cast<std::uint32_t>(gate.fanout_leads.size());
    gate_words[id] = gate_word::make(id, sem);
    single_sources[id] = (sem.kind == GateSemantics::Kind::kSingle ||
                          sem.kind == GateSemantics::Kind::kSingleInv)
                             ? gate.fanins.front()
                             : kNullGate;
  }

  for (GateId id = 0; id < num_gates; ++id) {
    const Gate& gate = circuit.gate(id);
    std::uint32_t* in = fanin_gates + fanin_offsets[id];
    for (GateId fanin : gate.fanins) *in++ = fanin;
    std::uint32_t* out = fanout_leads + fanout_offsets[id];
    std::uint64_t* sinks = fanout_sinks + fanout_offsets[id];
    for (LeadId lead_id : gate.fanout_leads) {
      *out++ = lead_id;
      *sinks++ = gate_words[circuit.lead(lead_id).sink];
    }
  }

  std::uint32_t side_all_size = 0;
  std::uint32_t side_low_size = 0;
  for (LeadId lead_id = 0; lead_id < num_leads; ++lead_id) {
    const Lead& lead = circuit.lead(lead_id);
    const Gate& sink = circuit.gate(lead.sink);
    CompiledLead& row = leads_[lead_id];
    row.driver = lead.driver;
    row.sink = lead.sink;
    row.pin = lead.pin;
    row.sink_has_ctrl = has_controlling_value(sink.type);
    if (!row.sink_has_ctrl) continue;
    row.sink_nc = noncontrolling_value(sink.type);

    row.side_all_begin = side_all_size;
    row.side_low_begin = side_low_size;
    for (std::uint32_t pin = 0; pin < sink.fanins.size(); ++pin) {
      if (pin == lead.pin) continue;
      side_all_gates[side_all_size++] = sink.fanins[pin];
      if (before != nullptr && (*before)(lead.sink, pin, lead.pin))
        side_low_gates[side_low_size++] = sink.fanins[pin];
    }
    row.side_all_count = side_all_size - row.side_all_begin;
    row.side_low_count = side_low_size - row.side_low_begin;
  }
}

}  // namespace rd
