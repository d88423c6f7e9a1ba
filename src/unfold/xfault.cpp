#include "unfold/xfault.h"

namespace rd {

KillCnf::KillCnf(const Circuit& circuit, SatSolver& solver,
                 const KillSet& killable)
    : good_(circuit, solver), kill_vars_(2 * circuit.num_leads()) {
  std::vector<SatVar> x(circuit.num_gates());
  for (SatVar& var : x) var = solver.new_var();
  for (GateId pi : circuit.inputs()) solver.add_clause({mk_lit(x[pi], true)});

  std::vector<SatLit> lx(circuit.num_leads());
  for (LeadId lead = 0; lead < circuit.num_leads(); ++lead) {
    lx[lead] = mk_lit(solver.new_var());
    const GateId driver = circuit.lead(lead).driver;
    for (const bool value : {false, true}) {
      // lx and not x_driver and good(driver) = value -> kill(lead, value).
      std::vector<SatLit> clause = {lit_negate(lx[lead]), mk_lit(x[driver]),
                                    good_.gate_lit(driver, !value)};
      if (killable.killed(lead, value)) {
        kill_vars_[2 * lead + (value ? 1 : 0)] = solver.new_var();
        clause.push_back(kill_lit(lead, value));
      }
      solver.add_clause(std::move(clause));
    }
  }

  for (GateId id : circuit.topo_order()) {
    const Gate& gate = circuit.gate(id);
    if (gate.type == GateType::kInput) continue;
    const SatLit not_x = mk_lit(x[id], true);
    if (!has_controlling_value(gate.type)) {
      solver.add_clause({not_x, lx[gate.fanin_leads[0]]});
      continue;
    }
    // X needs an X input and no input at the controlling value.
    const bool ctrl = controlling_value(gate.type);
    std::vector<SatLit> some_x = {not_x};
    for (std::uint32_t pin = 0; pin < gate.fanins.size(); ++pin) {
      const SatLit in_x = lx[gate.fanin_leads[pin]];
      some_x.push_back(in_x);
      solver.add_clause(
          {not_x, in_x, good_.gate_lit(gate.fanins[pin], !ctrl)});
    }
    solver.add_clause(std::move(some_x));
  }

  std::vector<SatLit> some_po_x;
  for (GateId po : circuit.outputs()) some_po_x.push_back(mk_lit(x[po]));
  solver.add_clause(std::move(some_po_x));
}

KillVerdict kill_set_testable(const Circuit& circuit, const KillSet& kills,
                              LeadId focus_lead, bool focus_value,
                              ExecGuard* guard) {
  if (guard != nullptr && !guard->check()) return KillVerdict::kAborted;
  SatSolver solver;
  solver.set_guard(guard);
  const KillCnf cnf(circuit, solver, kills);
  std::vector<SatLit> assumptions;
  for (LeadId lead = 0; lead < circuit.num_leads(); ++lead)
    for (const bool value : {false, true})
      if (kills.killed(lead, value))
        assumptions.push_back(cnf.kill_lit(lead, value));
  if (focus_lead != kNullLead)
    assumptions.push_back(
        cnf.good().gate_lit(circuit.lead(focus_lead).driver, focus_value));
  switch (solver.solve(assumptions, kMaxKillConflicts)) {
    case SatResult::kSat: return KillVerdict::kTestable;
    case SatResult::kUnsat: return KillVerdict::kRedundant;
    case SatResult::kUnknown: return KillVerdict::kAborted;
  }
  return KillVerdict::kAborted;
}

BigUint AlivePathCounts::through(const Circuit& circuit, LeadId lead,
                                 bool value) const {
  if (killed_ != nullptr && killed_->killed(lead, value)) return BigUint();
  const Lead& l = circuit.lead(lead);
  const bool sink_out = value != inverts(circuit.gate(l.sink).type);
  return arrivals(l.driver, value) * departures(l.sink, sink_out);
}

AlivePathCounts count_alive_paths(const Circuit& circuit,
                                  const KillSet& kills) {
  AlivePathCounts counts;
  counts.killed_ = &kills;
  const std::size_t n = circuit.num_gates();
  counts.arrivals0.assign(n, BigUint());
  counts.arrivals1.assign(n, BigUint());
  counts.departures0.assign(n, BigUint());
  counts.departures1.assign(n, BigUint());

  for (GateId id : circuit.topo_order()) {
    const Gate& gate = circuit.gate(id);
    if (gate.type == GateType::kInput) {
      counts.arrivals0[id] = BigUint(1);
      counts.arrivals1[id] = BigUint(1);
      continue;
    }
    for (const bool out_value : {false, true}) {
      // The on-path input carries the pre-inversion value.
      const bool in_value = out_value != inverts(gate.type);
      BigUint sum;
      for (std::uint32_t pin = 0; pin < gate.fanins.size(); ++pin) {
        const LeadId lead = gate.fanin_leads[pin];
        if (kills.killed(lead, in_value)) continue;
        sum += counts.arrivals(gate.fanins[pin], in_value);
      }
      (out_value ? counts.arrivals1 : counts.arrivals0)[id] = std::move(sum);
    }
  }

  const auto& topo = circuit.topo_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const GateId id = *it;
    const Gate& gate = circuit.gate(id);
    if (gate.type == GateType::kOutput) {
      counts.departures0[id] = BigUint(1);
      counts.departures1[id] = BigUint(1);
      continue;
    }
    for (const bool out_value : {false, true}) {
      BigUint sum;
      for (LeadId lead : gate.fanout_leads) {
        if (kills.killed(lead, out_value)) continue;
        const GateId sink = circuit.lead(lead).sink;
        const bool sink_out = out_value != inverts(circuit.gate(sink).type);
        sum += counts.departures(sink, sink_out);
      }
      (out_value ? counts.departures1 : counts.departures0)[id] =
          std::move(sum);
    }
  }

  for (GateId po : circuit.outputs())
    counts.total_alive_logical +=
        counts.arrivals0[po] + counts.arrivals1[po];
  return counts;
}

}  // namespace rd
