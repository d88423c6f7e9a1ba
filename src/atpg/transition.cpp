#include "atpg/transition.h"

#include "atpg/nonrobust.h"
#include "sim/implication.h"
#include "sim/logic_sim.h"

namespace rd {

std::vector<TransitionFault> all_transition_faults(const Circuit& circuit) {
  std::vector<TransitionFault> faults;
  for (GateId id = 0; id < circuit.num_gates(); ++id) {
    if (circuit.gate(id).type == GateType::kOutput) continue;
    faults.push_back(TransitionFault{id, false});
    faults.push_back(TransitionFault{id, true});
  }
  return faults;
}

TransitionSearch search_transition_test(const Circuit& circuit,
                                        const TransitionFault& fault,
                                        std::uint64_t max_nodes,
                                        ExecGuard* guard) {
  TransitionSearch result;
  // A slow-to-rise output looks stuck at 0 when sampled: v2 must detect
  // s-a-0 (and symmetrically for slow-to-fall).
  const bool stuck_value = fault.slow_to_rise ? false : true;
  const AtpgResult detection =
      podem(circuit, StuckFault::on_output(fault.gate, stuck_value),
            max_nodes, guard);
  result.nodes = detection.nodes;
  if (detection.verdict == AtpgVerdict::kAborted) {
    result.abort_reason = detection.abort_reason;
    return result;
  }
  if (detection.verdict == AtpgVerdict::kRedundant) {
    result.verdict = AtpgVerdict::kRedundant;
    return result;
  }

  // v1 justifies the pre-transition value at the fault site.
  ImplicationEngine engine(circuit);
  if (!engine.assign(fault.gate, to_value3(stuck_value))) {
    result.verdict = AtpgVerdict::kRedundant;
    return result;
  }
  internal::PiCompletion v1 = internal::complete_pi_assignment(
      circuit, engine, max_nodes, guard, result.nodes);
  result.verdict = v1.verdict;
  result.abort_reason = v1.abort_reason;
  if (v1.verdict != AtpgVerdict::kTestable) return result;

  TransitionTest test;
  test.v1 = std::move(v1.pis);
  test.v2.resize(circuit.inputs().size());
  for (std::size_t i = 0; i < test.v2.size(); ++i) {
    const Value3 value = detection.test[i];
    // PODEM don't-cares: keep v1's value so the launch is a
    // single-site transition where possible.
    test.v2[i] = is_known(value) ? to_bool(value) : test.v1[i];
  }
  result.test = std::move(test);
  return result;
}

bool transition_test_is_valid(const Circuit& circuit,
                              const TransitionFault& fault,
                              const TransitionTest& test) {
  if (test.v1.size() != circuit.inputs().size() ||
      test.v2.size() != circuit.inputs().size())
    return false;
  const bool initial = fault.slow_to_rise ? false : true;
  const auto before = simulate(circuit, test.v1);
  if (before[fault.gate] != initial) return false;
  std::vector<Value3> v2(circuit.inputs().size());
  for (std::size_t i = 0; i < v2.size(); ++i) v2[i] = to_value3(test.v2[i]);
  return detects_fault(circuit, StuckFault::on_output(fault.gate, initial),
                       v2);
}

double transition_coverage(const Circuit& circuit,
                           const std::vector<std::vector<Wave>>& tests) {
  const auto faults = all_transition_faults(circuit);
  if (faults.empty()) return 100.0;
  std::vector<bool> detected(faults.size(), false);
  for (const auto& waves : tests) {
    TransitionTest test;
    bool usable = true;
    for (const Wave& wave : waves) {
      if (!is_known(wave.initial) || !is_known(wave.final)) {
        usable = false;
        break;
      }
      test.v1.push_back(to_bool(wave.initial));
      test.v2.push_back(to_bool(wave.final));
    }
    if (!usable) continue;
    for (std::size_t f = 0; f < faults.size(); ++f)
      if (!detected[f] && transition_test_is_valid(circuit, faults[f], test))
        detected[f] = true;
  }
  std::size_t count = 0;
  for (const bool d : detected) count += d;
  return 100.0 * static_cast<double>(count) /
         static_cast<double>(faults.size());
}

}  // namespace rd
