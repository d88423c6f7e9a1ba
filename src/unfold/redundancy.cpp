#include "unfold/redundancy.h"

#include <algorithm>
#include <cmath>

#include "paths/counting.h"
#include "sim/logic_sim.h"
#include "unfold/leaf_dag.h"
#include "unfold/xfault.h"

namespace rd {

SimplifyResult propagate_constant(const Circuit& circuit, LeadId forced_lead,
                                  bool forced_value) {
  const std::size_t n = circuit.num_gates();

  // Pass 1: constants and the surviving structure, in terms of old ids.
  std::vector<Value3> constant(n, Value3::kUnknown);
  struct Surviving {
    GateType type;
    std::vector<GateId> fanins;  // old ids of surviving fanins
  };
  std::vector<Surviving> survive(n);
  bool collapsed = false;

  for (GateId id : circuit.topo_order()) {
    const Gate& gate = circuit.gate(id);
    if (gate.type == GateType::kInput) {
      survive[id] = {GateType::kInput, {}};
      continue;
    }
    auto pin_constant = [&](std::uint32_t pin) -> Value3 {
      if (gate.fanin_leads[pin] == forced_lead) return to_value3(forced_value);
      return constant[gate.fanins[pin]];
    };
    if (gate.type == GateType::kOutput || gate.type == GateType::kBuf ||
        gate.type == GateType::kNot) {
      const Value3 in = pin_constant(0);
      if (is_known(in)) {
        constant[id] = gate.type == GateType::kNot ? negate(in) : in;
        if (gate.type == GateType::kOutput) collapsed = true;
      } else {
        survive[id] = {gate.type, {gate.fanins[0]}};
      }
      continue;
    }
    // Controlling-value gate.
    const Value3 ctrl = to_value3(controlling_value(gate.type));
    std::vector<GateId> kept;
    bool is_controlled = false;
    for (std::uint32_t pin = 0; pin < gate.fanins.size(); ++pin) {
      const Value3 value = pin_constant(pin);
      if (value == ctrl) {
        is_controlled = true;
        break;
      }
      if (!is_known(value)) kept.push_back(gate.fanins[pin]);
      // non-controlling constants simply drop out
    }
    if (is_controlled) {
      constant[id] = to_value3(controlled_output(gate.type));
    } else if (kept.empty()) {
      constant[id] = to_value3(noncontrolled_output(gate.type));
    } else if (kept.size() == 1) {
      survive[id] = {inverts(gate.type) ? GateType::kNot : GateType::kBuf,
                     std::move(kept)};
    } else {
      survive[id] = {gate.type, std::move(kept)};
    }
  }

  // Pass 2: liveness from surviving POs.
  std::vector<bool> live(n, false);
  std::vector<GateId> stack;
  for (GateId po : circuit.outputs()) {
    if (is_known(constant[po])) continue;  // collapsed PO: dropped
    live[po] = true;
    stack.push_back(po);
  }
  while (!stack.empty()) {
    const GateId id = stack.back();
    stack.pop_back();
    for (GateId fanin : survive[id].fanins) {
      if (!live[fanin]) {
        live[fanin] = true;
        stack.push_back(fanin);
      }
    }
  }

  // Pass 3: emit.
  SimplifyResult result;
  result.collapsed = collapsed;
  Circuit simplified(circuit.name());
  std::vector<GateId> remap(n, kNullGate);
  for (GateId id : circuit.topo_order()) {
    if (!live[id]) continue;
    const Surviving& s = survive[id];
    std::vector<GateId> fanins;
    fanins.reserve(s.fanins.size());
    for (GateId fanin : s.fanins) fanins.push_back(remap[fanin]);
    const std::string& name = circuit.gate(id).name;
    switch (s.type) {
      case GateType::kInput:
        remap[id] = simplified.add_input(name);
        break;
      case GateType::kOutput:
        remap[id] = simplified.add_output(name, fanins.front());
        break;
      default:
        remap[id] = simplified.add_gate(s.type, name, std::move(fanins));
        break;
    }
  }
  simplified.finalize();
  result.circuit = std::move(simplified);
  return result;
}

namespace {

/// A (lead, value) pair that removes paths if killed.
struct Candidate {
  LeadId lead;
  bool value;
  BigUint weight;  // alive paths through the pair with no kill
};

/// Every candidate of `dag`, heaviest first, ties by (lead, value).
std::vector<Candidate> sorted_candidates(const Circuit& dag) {
  const KillSet none(dag.num_leads());
  const AlivePathCounts initial = count_alive_paths(dag, none);
  std::vector<Candidate> candidates;
  for (LeadId lead = 0; lead < dag.num_leads(); ++lead) {
    for (const bool value : {false, true}) {
      BigUint weight = initial.through(dag, lead, value);
      if (weight.is_zero()) continue;  // no paths to remove
      candidates.push_back(Candidate{lead, value, std::move(weight)});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.weight != b.weight) return b.weight < a.weight;
              if (a.lead != b.lead) return a.lead < b.lead;
              return a.value < b.value;
            });
  return candidates;
}

/// Calls `observed(lead, value)` for every (lead, good value) pair
/// whose X alone reaches a PO under the vector `good` — exact on the
/// leaf-dag's tree, where each gate has one fanout: the X passes a gate
/// iff no other input is controlling.  Ternary simulation is monotone,
/// so the kill stays observable under any larger kill set.
template <typename Observed>
void for_each_observed_kill(const Circuit& dag, const std::vector<bool>& good,
                            Observed&& observed) {
  std::vector<bool> obs(dag.num_gates(), false);
  for (GateId po : dag.outputs()) obs[po] = true;
  const auto& topo = dag.topo_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    if (!obs[*it]) continue;
    const Gate& gate = dag.gate(*it);
    const bool has_ctrl = has_controlling_value(gate.type);
    const bool ctrl = has_ctrl && controlling_value(gate.type);
    std::uint32_t controlling = 0;
    if (has_ctrl)
      for (GateId fanin : gate.fanins) controlling += good[fanin] == ctrl;
    for (std::uint32_t pin = 0; pin < gate.fanins.size(); ++pin) {
      const GateId fanin = gate.fanins[pin];
      const bool self = has_ctrl && good[fanin] == ctrl;
      if (controlling > (self ? 1u : 0u)) continue;  // another input decides
      observed(gate.fanin_leads[pin], good[fanin]);
      obs[fanin] = true;
    }
  }
}

/// The greedy kill-set growth on one cone's leaf-dag, on one
/// incremental solver.  Returns false when the guard tripped.
bool grow_kills(const Circuit& dag, KillSet& kills, ExecGuard* guard,
                UnfoldResult& result) {
  const std::vector<Candidate> candidates = sorted_candidates(dag);
  if (candidates.empty()) return true;
  KillSet killable(dag.num_leads());
  std::vector<std::size_t> index_of(2 * dag.num_leads(), candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    killable.kill(candidates[i].lead, candidates[i].value);
    index_of[2 * candidates[i].lead + candidates[i].value] = i;
  }
  SatSolver solver;
  solver.set_guard(guard);
  const KillCnf cnf(dag, solver, killable);

  // chain[i] forbids candidates i, i+1, ...: assuming chain[i + 1]
  // keeps every untried candidate alive while candidate i is judged.
  std::vector<SatLit> chain(candidates.size());
  for (SatLit& lit : chain) lit = mk_lit(solver.new_var());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const Candidate& c = candidates[i];
    solver.add_clause({lit_negate(chain[i]),
                       lit_negate(cnf.kill_lit(c.lead, c.value))});
    if (i + 1 < candidates.size())
      solver.add_clause({lit_negate(chain[i]), chain[i + 1]});
  }

  // A rejected candidate never becomes sound later: adding kills only
  // makes an injected X easier to observe (single pass).
  std::vector<bool> rejected(candidates.size(), false);
  const auto reject = [&](std::size_t i) {
    rejected[i] = true;
    solver.add_clause(
        {lit_negate(cnf.kill_lit(candidates[i].lead, candidates[i].value))});
  };
  AlivePathCounts alive;
  bool counts_dirty = true;
  std::vector<bool> witness(dag.inputs().size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (rejected[i]) continue;
    const Candidate& c = candidates[i];
    // Earlier kills may have already removed every path through this
    // pair — a query would gain zero RD paths.
    if (counts_dirty) {
      alive = count_alive_paths(dag, kills);
      counts_dirty = false;
    }
    if (alive.through(dag, c.lead, c.value).is_zero()) {
      reject(i);
      continue;
    }
    if (guard != nullptr && !guard->check()) return false;
    ++result.redundancy_checks;
    // Focus: the previous kill set is proven, so a counterexample must
    // activate the new kill.
    std::vector<SatLit> assumptions = {
        cnf.kill_lit(c.lead, c.value),
        cnf.good().gate_lit(dag.lead(c.lead).driver, c.value)};
    if (i + 1 < candidates.size()) assumptions.push_back(chain[i + 1]);
    switch (solver.solve(assumptions, kMaxKillConflicts)) {
      case SatResult::kUnsat:
        kills.kill(c.lead, c.value);
        solver.add_clause({cnf.kill_lit(c.lead, c.value)});
        ++result.redundancies_removed;
        counts_dirty = true;
        break;
      case SatResult::kSat:
        reject(i);
        for (std::size_t pi = 0; pi < witness.size(); ++pi)
          witness[pi] =
              solver.model_value(cnf.good().gate_var(dag.inputs()[pi]));
        for_each_observed_kill(
            dag, simulate(dag, witness), [&](LeadId lead, bool value) {
              const std::size_t j = index_of[2 * lead + value];
              if (j > i && j < candidates.size() && !rejected[j]) reject(j);
            });
        break;
      case SatResult::kUnknown:
        if (guard != nullptr && guard->tripped()) return false;
        result.complete = false;
        if (result.abort_reason == AbortReason::kNone)
          result.abort_reason = AbortReason::kWorkBudget;
        reject(i);
        break;
    }
  }
  return true;
}

}  // namespace

UnfoldResult identify_rd_unfold(const Circuit& circuit, ExecGuard* guard) {
  UnfoldResult result;
  const PathCounts original_counts(circuit);
  result.total_logical = original_counts.total_logical();

  bool stopped = false;  // the guard tripped
  for (GateId po : circuit.outputs()) {
    LeafDag leaf;
    if (!stopped) leaf = build_leaf_dag(circuit, po);
    if (stopped || !leaf.complete) {
      // Cone not processed (the guard tripped, or the leaf-dag exceeds
      // its 2^20-gate budget): all of its paths stay must-test.
      BigUint cone_paths = original_counts.arrivals(po);
      cone_paths *= 2u;
      result.must_test_logical += cone_paths;
      if (!stopped) {
        result.complete = false;
        if (result.abort_reason == AbortReason::kNone)
          result.abort_reason = AbortReason::kWorkBudget;
      }
      continue;
    }
    KillSet kills(leaf.dag.num_leads());
    if (!grow_kills(leaf.dag, kills, guard, result)) {
      // The run stops here, so the guard's cause is the one reported.
      stopped = true;
      result.complete = false;
      result.abort_reason = guard->reason();
    }
    result.must_test_logical +=
        count_alive_paths(leaf.dag, kills).total_alive_logical;
  }

  // Guard against BigUint::to_double overflowing to infinity: the naive
  // inf/inf quotient would poison rd_percent with NaN.
  const double total = result.total_logical.to_double();
  if (total > 0) {
    const BigUint rd_big = result.total_logical - result.must_test_logical;
    const double rd = rd_big.to_double();
    const double percent = std::isfinite(total) && std::isfinite(rd)
                               ? 100.0 * rd / total
                               : 100.0;
    result.rd_percent = std::isfinite(percent) ? percent : 0.0;
  }
  return result;
}

}  // namespace rd
