#include "core/exact.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <stdexcept>
#include <utility>

#include "sim/logic_sim.h"

namespace rd {

bool exactly_sensitizable(const Circuit& circuit, const LogicalPath& path,
                          Criterion criterion, const InputSort* sort) {
  const std::size_t n = circuit.inputs().size();
  if (n > kSweepMaxInputs)
    throw std::invalid_argument("exactly_sensitizable: too many inputs");
  // The literals take each on-path value from the inversion parity,
  // while a vector's own on-path value is the simulated one.  The two
  // agree along every prefix whose literals hold: a controlling on-path
  // value fixes the gate's output whatever its side inputs, and a
  // non-controlling one does so once its side inputs are
  // non-controlling.  So checking the parity literals under each vector
  // is checking the conditions with its simulated values.
  std::vector<std::pair<GateId, bool>> literals;
  for_each_path_condition(circuit, path, criterion, sort,
                          [&](GateId gate, bool value) {
                            literals.emplace_back(gate, value);
                            return true;
                          });
  std::vector<bool> input_values(n);
  for (std::uint64_t minterm = 0; minterm < (std::uint64_t{1} << n);
       ++minterm) {
    for (std::size_t i = 0; i < n; ++i) input_values[i] = (minterm >> i) & 1;
    const auto values = simulate(circuit, input_values);
    if (std::all_of(literals.begin(), literals.end(), [&](const auto& lit) {
          return values[lit.first] == lit.second;
        }))
      return true;
  }
  return false;
}

LogicalPathSet exact_kept_paths(const Circuit& circuit, Criterion criterion,
                                const InputSort* sort,
                                std::uint64_t max_paths) {
  LogicalPathSet kept;
  const bool ok = enumerate_paths(
      circuit,
      [&](const PhysicalPath& physical) {
        for (const bool final_value : {false, true}) {
          const LogicalPath logical{physical, final_value};
          if (exactly_sensitizable(circuit, logical, criterion, sort))
            kept.insert(logical.key());
        }
      },
      max_paths);
  if (!ok) throw std::runtime_error("exact_kept_paths: too many paths");
  return kept;
}

std::optional<std::size_t> exact_min_lp_sigma(const Circuit& circuit,
                                              std::uint64_t max_states) {
  const std::size_t n = circuit.inputs().size();
  if (n > 16)
    throw std::invalid_argument("exact_min_lp_sigma: too many inputs");

  // Pre-compute, for every (vector, PO), the logical-path key sets of
  // every possible stabilizing system.
  struct ChoicePoint {
    std::vector<LogicalPathSet> alternatives;
  };
  std::vector<ChoicePoint> points;
  std::vector<bool> input_values(n);
  for (std::uint64_t minterm = 0; minterm < (std::uint64_t{1} << n);
       ++minterm) {
    for (std::size_t i = 0; i < n; ++i) input_values[i] = (minterm >> i) & 1;
    const auto values = simulate(circuit, input_values);
    for (GateId po : circuit.outputs()) {
      const auto systems =
          all_stabilizing_systems(circuit, po, values, /*max_systems=*/4096);
      ChoicePoint point;
      for (const auto& system : systems) {
        LogicalPathSet keys;
        for (const auto& path :
             logical_paths_of_system(circuit, system, values))
          keys.insert(path.key());
        point.alternatives.push_back(std::move(keys));
      }
      points.push_back(std::move(point));
    }
  }

  // Branch-and-bound: order points by number of alternatives (forced
  // ones first), grow the union, prune on the best size so far.
  std::sort(points.begin(), points.end(),
            [](const ChoicePoint& a, const ChoicePoint& b) {
              return a.alternatives.size() < b.alternatives.size();
            });

  std::size_t best = std::numeric_limits<std::size_t>::max();
  std::uint64_t states = 0;
  LogicalPathSet current;
  bool aborted = false;

  std::function<void(std::size_t)> recurse = [&](std::size_t index) {
    if (aborted) return;
    if (++states > max_states) {
      aborted = true;
      return;
    }
    if (current.size() >= best) return;
    if (index == points.size()) {
      best = current.size();
      return;
    }
    for (const auto& alternative : points[index].alternatives) {
      std::vector<const std::vector<std::uint32_t>*> added;
      for (const auto& key : alternative) {
        if (current.insert(key).second) added.push_back(&key);
      }
      recurse(index + 1);
      for (const auto* key : added) current.erase(*key);
      if (aborted) return;
    }
  };
  recurse(0);
  if (aborted) return std::nullopt;
  return best;
}

}  // namespace rd
