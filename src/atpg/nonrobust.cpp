#include "atpg/nonrobust.h"

#include <stdexcept>

#include "atpg/path_fault_sim.h"
#include "paths/conditions.h"
#include "sim/implication.h"

namespace rd {

NonRobustSearch search_nonrobust_test(const Circuit& circuit,
                                      const LogicalPath& path,
                                      std::uint64_t max_nodes,
                                      ExecGuard* guard) {
  if (!is_valid_path(circuit, path.path))
    throw std::invalid_argument("search_nonrobust_test: malformed path");
  NonRobustSearch result;
  ImplicationEngine engine(circuit);
  // (NR1) and (NR2); a conflict proves the path untestable.
  const bool consistent = for_each_path_condition(
      circuit, path, kAllSidePins, [&](GateId gate, bool value) {
        return engine.assign(gate, to_value3(value));
      });
  if (!consistent) {
    result.verdict = AtpgVerdict::kRedundant;
    return result;
  }

  // Complete the assignment over the PIs: the asserted gate values are
  // on the engine's trail, so any full PI assignment that survives the
  // implications satisfies every condition.
  internal::PiCompletion completion = internal::complete_pi_assignment(
      circuit, engine, max_nodes, guard, result.nodes);
  result.verdict = completion.verdict;
  result.abort_reason = completion.abort_reason;
  if (completion.verdict != AtpgVerdict::kTestable) return result;

  NonRobustTest test;
  test.v2 = std::move(completion.pis);
  test.v1 = test.v2;
  // Launch: v1 complements the path's PI (Remark 1).
  const GateId pi = path_pi(circuit, path.path);
  for (std::size_t i = 0; i < circuit.inputs().size(); ++i)
    if (circuit.inputs()[i] == pi) test.v1[i] = !test.v1[i];
  result.test = std::move(test);
  return result;
}

bool nonrobust_test_is_valid(const Circuit& circuit, const LogicalPath& path,
                             const NonRobustTest& test) {
  if (test.v1.size() != circuit.inputs().size() ||
      test.v2.size() != circuit.inputs().size())
    return false;
  const auto waves =
      simulate_waves(circuit, waves_of_vectors(circuit, test.v1, test.v2));
  return classify_path_detection(circuit, path, waves) !=
         DetectionClass::kNone;
}

namespace internal {

PiCompletion complete_pi_assignment(const Circuit& circuit,
                                    ImplicationEngine& engine,
                                    std::uint64_t max_nodes, ExecGuard* guard,
                                    std::uint64_t& nodes) {
  const auto& pis = circuit.inputs();
  const auto recurse = [&](const auto& self, std::size_t index) -> bool {
    if (++nodes > max_nodes)
      throw GuardTrippedError(AbortReason::kWorkBudget);
    if (guard != nullptr && !guard->check())
      throw GuardTrippedError(guard->reason());
    while (index < pis.size() && is_known(engine.value(pis[index]))) ++index;
    if (index == pis.size()) return true;
    for (const Value3 value : {Value3::kZero, Value3::kOne}) {
      const std::size_t mark = engine.mark();
      if (engine.assign(pis[index], value) && self(self, index + 1))
        return true;
      engine.rollback(mark);
    }
    return false;
  };
  PiCompletion completion;
  try {
    if (!recurse(recurse, 0)) {
      completion.verdict = AtpgVerdict::kRedundant;
      return completion;
    }
  } catch (const GuardTrippedError& error) {
    completion.abort_reason = error.reason();
    return completion;
  }
  completion.verdict = AtpgVerdict::kTestable;
  completion.pis.resize(pis.size());
  for (std::size_t i = 0; i < pis.size(); ++i)
    completion.pis[i] = to_bool(engine.value(pis[i]));
  return completion;
}

}  // namespace internal

}  // namespace rd
