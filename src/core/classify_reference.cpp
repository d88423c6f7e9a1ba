// Frozen pre-compilation serial classifier: a verbatim copy of the
// classification DFS as it stood before the compiled execution layer
// (CSR circuit views, epoch-reset engine, precomputed side-input
// tables, strided guard polls — DESIGN.md §9) replaced it.
//
// It exists as an *oracle*: tests/compiled_test.cpp asserts that the
// production engines reproduce this classifier bit for bit (kept
// paths/keys, work counters, per-lead tallies, ImplicationStats), and
// perfbench checks every end-to-end verdict against it.
// Do not optimize this file; change it only if the classification
// semantics themselves change, together with the production engines.
#include <stdexcept>
#include <vector>

#include "core/classify.h"
#include "core/classify_dfs.h"
#include "sim/implication_reference.h"
#include "util/stopwatch.h"

namespace rd {
namespace {

/// The pre-striding serial budget: work limit and ExecGuard both
/// evaluated on every single charge.
class ReferenceBudget {
 public:
  explicit ReferenceBudget(std::uint64_t limit, ExecGuard* guard = nullptr)
      : limit_(limit), guard_(guard) {}

  bool charge() {
    if (++used_ > limit_) {
      if (reason_ == AbortReason::kNone) reason_ = AbortReason::kWorkBudget;
      return false;
    }
    if (guard_ != nullptr && !guard_->check()) {
      if (reason_ == AbortReason::kNone) reason_ = guard_->reason();
      return false;
    }
    return true;
  }

  AbortReason reason() const { return reason_; }
  ExecGuard* guard() const { return guard_; }

 private:
  std::uint64_t limit_;
  ExecGuard* guard_;
  std::uint64_t used_ = 0;
  AbortReason reason_ = AbortReason::kNone;
};

/// The pre-compilation DFS driver: walks Gate/Lead objects of the
/// analysis netlist, re-runs the PI assignment for every seed, and
/// consults the InputSort comparator inside the hot loop.
class ReferenceSeedDfs {
 public:
  struct SeedOutcome {
    std::uint64_t kept_paths = 0;
    std::uint64_t work = 0;
    std::vector<std::vector<std::uint32_t>> kept_keys;
    bool exhausted = false;
  };

  ReferenceSeedDfs(const Circuit& circuit, const ClassifyOptions& options,
                   ReferenceBudget& budget,
                   std::vector<std::uint64_t>* lead_counts)
      : circuit_(circuit),
        options_(options),
        budget_(budget),
        lead_counts_(lead_counts),
        engine_(circuit, options.backward_implications) {
    if (options.criterion == Criterion::kInputSort && options.sort == nullptr)
      throw std::invalid_argument("kInputSort requires an InputSort");
  }

  const ImplicationStats& implication_stats() const {
    return engine_.stats();
  }

  SeedOutcome run_seed(const internal::ClassifySeed& seed,
                       std::uint64_t max_keys) {
    outcome_ = SeedOutcome{};
    max_keys_ = max_keys;
    current_final_pi_value_ = seed.final_value;
    const std::size_t mark = engine_.mark();
    if (engine_.assign(seed.pi, to_value3(seed.final_value))) {
      if (!extend_through(seed.first_lead, seed.final_value))
        outcome_.exhausted = true;
    }
    engine_.undo_to(mark);
    return std::move(outcome_);
  }

 private:
  bool extend_through(LeadId lead_id, bool tip_value) {
    ++outcome_.work;
    if (!budget_.charge()) return false;
    const Lead& lead = circuit_.lead(lead_id);
    const Gate& sink = circuit_.gate(lead.sink);
    const std::size_t mark = engine_.mark();
    bool feasible = true;

    if (has_controlling_value(sink.type)) {
      const bool nc = noncontrolling_value(sink.type);
      if (tip_value == nc) {
        feasible = assign_side_inputs(sink, lead.pin, nc,
                                      /*low_order_only=*/false, lead.sink);
      } else {
        switch (options_.criterion) {
          case Criterion::kFunctionalSensitizable:
            break;
          case Criterion::kNonRobust:
            feasible = assign_side_inputs(sink, lead.pin, nc,
                                          /*low_order_only=*/false, lead.sink);
            break;
          case Criterion::kInputSort:
            feasible = assign_side_inputs(sink, lead.pin, nc,
                                          /*low_order_only=*/true, lead.sink);
            break;
        }
      }
    }

    bool ok = true;
    if (feasible) {
      const Value3 sink_value = engine_.value(lead.sink);
      segment_.push_back(lead_id);
      ok = extend(lead.sink, to_bool(sink_value));
      segment_.pop_back();
    }
    engine_.undo_to(mark);
    return ok;
  }

  bool extend(GateId tip, bool tip_value) {
    const Gate& tip_gate = circuit_.gate(tip);
    if (tip_gate.type == GateType::kOutput) {
      record_survivor();
      return true;
    }
    for (LeadId lead_id : tip_gate.fanout_leads)
      if (!extend_through(lead_id, tip_value)) return false;
    return true;
  }

  bool assign_side_inputs(const Gate& sink, std::uint32_t on_path_pin, bool nc,
                          bool low_order_only, GateId sink_id) {
    for (std::uint32_t pin = 0; pin < sink.fanins.size(); ++pin) {
      if (pin == on_path_pin) continue;
      if (low_order_only &&
          !options_.sort->before(sink_id, pin, on_path_pin))
        continue;
      if (!engine_.assign(sink.fanins[pin], to_value3(nc))) return false;
    }
    return true;
  }

  void record_survivor() {
    ++outcome_.kept_paths;
    if (outcome_.kept_keys.size() < max_keys_) {
      std::vector<std::uint32_t> key(segment_.begin(), segment_.end());
      key.push_back(current_final_pi_value_ ? 1u : 0u);
      if (ExecGuard* guard = budget_.guard(); guard != nullptr)
        guard->add_memory(key.capacity() * sizeof(std::uint32_t) +
                          sizeof(key));
      outcome_.kept_keys.push_back(std::move(key));
    }
    if (lead_counts_ == nullptr) return;
    for (LeadId lead_id : segment_) {
      const Lead& lead = circuit_.lead(lead_id);
      const Gate& sink = circuit_.gate(lead.sink);
      if (!has_controlling_value(sink.type)) continue;
      const Value3 value = engine_.value(lead.driver);
      if (is_known(value) &&
          to_bool(value) == controlling_value(sink.type))
        ++(*lead_counts_)[lead_id];
    }
  }

  const Circuit& circuit_;
  const ClassifyOptions& options_;
  ReferenceBudget& budget_;
  std::vector<std::uint64_t>* lead_counts_;
  ReferenceImplicationEngine engine_;
  std::vector<LeadId> segment_;
  SeedOutcome outcome_;
  std::uint64_t max_keys_ = 0;
  bool current_final_pi_value_ = false;
};

}  // namespace

ClassifyResult classify_paths_reference(const Circuit& circuit,
                                        const ClassifyOptions& options) {
  Stopwatch watch;
  ClassifyResult result;
  if (options.collect_lead_counts)
    result.kept_controlling_per_lead.assign(circuit.num_leads(), 0);

  ReferenceBudget budget(options.work_limit, options.guard);
  ReferenceSeedDfs dfs(circuit, options, budget,
                       options.collect_lead_counts
                           ? &result.kept_controlling_per_lead
                           : nullptr);
  try {
    for (const internal::ClassifySeed& seed :
         internal::enumerate_seeds(circuit)) {
      const std::uint64_t remaining_keys =
          options.collect_paths_limit > result.kept_keys.size()
              ? options.collect_paths_limit - result.kept_keys.size()
              : 0;
      auto outcome = dfs.run_seed(seed, remaining_keys);
      result.kept_paths += outcome.kept_paths;
      result.work += outcome.work;
      for (auto& key : outcome.kept_keys)
        result.kept_keys.push_back(std::move(key));
      if (outcome.exhausted) {
        result.completed = false;
        result.abort_reason = budget.reason();
        break;
      }
    }
  } catch (const GuardTrippedError& error) {
    result.completed = false;
    result.abort_reason = error.reason();
  }
  result.implication = dfs.implication_stats();
  internal::finish_classify_result(circuit, &result);
  result.wall_seconds = watch.elapsed_seconds();
  return result;
}

}  // namespace rd
