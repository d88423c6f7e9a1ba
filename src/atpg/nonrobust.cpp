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

  // Complete the assignment over the PIs, in index order, 0 before 1,
  // each decision pruned by implication: the asserted gate values are
  // on the engine's trail, so any full PI assignment that survives the
  // implications satisfies every condition.  Each node counts against
  // `max_nodes` and polls the guard.
  const auto& pis = circuit.inputs();
  const auto complete = [&](const auto& self, std::size_t index) -> bool {
    if (++result.nodes > max_nodes)
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
  try {
    if (!complete(complete, 0)) {
      result.verdict = AtpgVerdict::kRedundant;
      return result;
    }
  } catch (const GuardTrippedError& error) {
    result.abort_reason = error.reason();
    return result;
  }
  result.verdict = AtpgVerdict::kTestable;

  NonRobustTest test;
  test.v2.resize(pis.size());
  for (std::size_t i = 0; i < pis.size(); ++i)
    test.v2[i] = to_bool(engine.value(pis[i]));
  test.v1 = test.v2;
  // Launch: v1 complements the path's PI (Remark 1).
  const GateId pi = path_pi(circuit, path.path);
  for (std::size_t i = 0; i < pis.size(); ++i)
    if (pis[i] == pi) test.v1[i] = !test.v1[i];
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

}  // namespace rd
