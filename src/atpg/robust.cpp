#include "atpg/robust.h"

#include <stdexcept>

#include "atpg/path_fault_sim.h"

namespace rd {

namespace {

/// Constraint status from a partial assignment.
enum class Status { kViolated, kSatisfied, kUndecided };

class RobustChecker {
 public:
  RobustChecker(const Circuit& circuit, const LogicalPath& path,
                std::uint64_t max_nodes, ExecGuard* guard)
      : circuit_(circuit), path_(path), max_nodes_(max_nodes),
        guard_(guard) {
    const std::size_t n = circuit.inputs().size();
    pi_waves_.assign(n, Wave::unknown());
    pi_assigned_.assign(n, false);
    pi_index_of_gate_.assign(circuit.num_gates(), kNone);
    for (std::size_t i = 0; i < n; ++i)
      pi_index_of_gate_[circuit.inputs()[i]] = i;

    // Per-gate PI support masks for decisive pruning (≤ 64 PIs; beyond
    // that pruning is skipped and only full assignments are checked).
    if (n <= 64) {
      support_.assign(circuit.num_gates(), 0);
      for (GateId id : circuit.topo_order()) {
        const Gate& gate = circuit.gate(id);
        if (gate.type == GateType::kInput) {
          support_[id] = std::uint64_t{1} << pi_index_of_gate_[id];
          continue;
        }
        for (GateId fanin : gate.fanins) support_[id] |= support_[fanin];
      }
    }
  }

  std::optional<RobustTest> search() {
    // The path's PI waveform is fixed by the fault.
    const GateId pi = path_pi(circuit_, path_.path);
    const std::size_t pi_index = pi_index_of_gate_[pi];
    pi_waves_[pi_index] = Wave::transition(path_.final_pi_value);
    pi_assigned_[pi_index] = true;

    // Decision order: remaining PIs by index.
    decision_order_.clear();
    for (std::size_t i = 0; i < pi_waves_.size(); ++i)
      if (!pi_assigned_[i]) decision_order_.push_back(i);

    if (recurse(0)) return pi_waves_;
    return std::nullopt;
  }

  /// Search nodes expanded so far (valid even after a budget throw).
  std::uint64_t nodes() const { return nodes_; }

  /// Evaluates the robust conditions for the current (partial)
  /// assignment.  Unassigned PIs contribute unknown waveforms; a
  /// constraint is only declared violated when every PI in its support
  /// is assigned (the evaluation is then exact).
  Status check() const {
    const auto waves = simulate_waves(circuit_, pi_waves_);
    bool undecided = false;
    bool expected = path_.final_pi_value;
    for (LeadId lead_id : path_.path.leads) {
      const Lead& lead = circuit_.lead(lead_id);
      const Gate& sink = circuit_.gate(lead.sink);
      // On-path transition must arrive cleanly with the right polarity.
      const Wave& on_path = waves[lead.driver];
      if (!(on_path.clean && on_path.has_transition() &&
            to_bool(on_path.final) == expected)) {
        if (decisive(lead.driver)) return Status::kViolated;
        undecided = true;
      }
      if (has_controlling_value(sink.type)) {
        const bool nc = noncontrolling_value(sink.type);
        const bool on_path_final_nc = expected == nc;
        for (std::uint32_t pin = 0; pin < sink.fanins.size(); ++pin) {
          if (pin == lead.pin) continue;
          const GateId side = sink.fanins[pin];
          const Wave& wave = waves[side];
          bool ok;
          if (on_path_final_nc) {
            // Side must settle cleanly on non-controlling (steady or a
            // controlling→non-controlling transition).
            ok = wave.clean && wave.final == to_value3(nc);
          } else {
            // Side must be steady non-controlling.
            ok = wave.is_steady() && wave.final == to_value3(nc);
          }
          if (!ok) {
            if (decisive(side)) return Status::kViolated;
            undecided = true;
          }
        }
      }
      if (inverts(sink.type)) expected = !expected;
    }
    return undecided ? Status::kUndecided : Status::kSatisfied;
  }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  bool recurse(std::size_t depth) {
    if (++nodes_ > max_nodes_)
      throw GuardTrippedError(AbortReason::kWorkBudget);
    if (guard_ != nullptr && !guard_->check())
      throw GuardTrippedError(guard_->reason());
    switch (check()) {
      case Status::kViolated:
        return false;
      case Status::kSatisfied:
        // Fill remaining PIs with arbitrary steady values so the
        // returned test is concrete.
        for (std::size_t i = depth; i < decision_order_.size(); ++i) {
          pi_waves_[decision_order_[i]] = Wave::steady(false);
          pi_assigned_[decision_order_[i]] = true;
        }
        return true;
      case Status::kUndecided:
        break;
    }
    if (depth == decision_order_.size()) return false;
    const std::size_t pi_index = decision_order_[depth];
    static constexpr Wave kChoices[] = {Wave{Value3::kZero, Value3::kZero, true},
                                        Wave{Value3::kOne, Value3::kOne, true},
                                        Wave{Value3::kZero, Value3::kOne, true},
                                        Wave{Value3::kOne, Value3::kZero, true}};
    pi_assigned_[pi_index] = true;
    for (const Wave& choice : kChoices) {
      pi_waves_[pi_index] = choice;
      if (recurse(depth + 1)) return true;
    }
    pi_waves_[pi_index] = Wave::unknown();
    pi_assigned_[pi_index] = false;
    return false;
  }

  /// True if every PI feeding `gate` is assigned (its wave is exact).
  bool decisive(GateId gate) const {
    if (support_.empty()) return false;
    std::uint64_t mask = support_[gate];
    while (mask != 0) {
      const int bit = __builtin_ctzll(mask);
      if (!pi_assigned_[static_cast<std::size_t>(bit)]) return false;
      mask &= mask - 1;
    }
    return true;
  }

  const Circuit& circuit_;
  const LogicalPath& path_;
  std::uint64_t max_nodes_;
  ExecGuard* guard_;
  std::uint64_t nodes_ = 0;
  std::vector<Wave> pi_waves_;
  std::vector<bool> pi_assigned_;
  std::vector<std::size_t> pi_index_of_gate_;
  std::vector<std::uint64_t> support_;
  std::vector<std::size_t> decision_order_;
};

}  // namespace

RobustSearch search_robust_test(const Circuit& circuit,
                                const LogicalPath& path,
                                std::uint64_t max_nodes, ExecGuard* guard) {
  if (!is_valid_path(circuit, path.path))
    throw std::invalid_argument("search_robust_test: malformed path");
  RobustChecker checker(circuit, path, max_nodes, guard);
  RobustSearch result;
  try {
    result.test = checker.search();
    result.verdict = result.test.has_value() ? AtpgVerdict::kTestable
                                             : AtpgVerdict::kRedundant;
  } catch (const GuardTrippedError& error) {
    result.verdict = AtpgVerdict::kAborted;
    result.abort_reason = error.reason();
  }
  result.nodes = checker.nodes();
  return result;
}

bool robust_test_is_valid(const Circuit& circuit, const LogicalPath& path,
                          const RobustTest& test) {
  if (test.size() != circuit.inputs().size()) return false;
  for (const Wave& wave : test)
    if (!wave.clean || !is_known(wave.initial) || !is_known(wave.final))
      return false;
  const auto waves = simulate_waves(circuit, test);
  return classify_path_detection(circuit, path, waves) ==
         DetectionClass::kRobust;
}

}  // namespace rd
