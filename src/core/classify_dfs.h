// Internal: the implicit-enumeration DFS core behind classify_paths
// (core/classify.cpp).  Not part of the public API.
//
// The unit of work is one DFS subtree of the shared path-prefix tree
// per (primary input, final stable value, first fanout lead) seed.  At
// one thread the driver runs the seeds inline in canonical order; above
// one thread each seed is a pool task (DESIGN.md §10).  Either way the
// outputs merged in canonical seed order reproduce the classic
// single-threaded DFS bit for bit:
//
//   * kept/work counters are sums of per-seed counters (commutative),
//   * kept_controlling_per_lead is an elementwise sum,
//   * kept keys concatenated in discovery order equal the serial DFS
//     order, so truncation at collect_paths_limit matches.
//
// Work accounting goes through one WorkBudget per worker, whose
// charge() is called once per DFS gate-extension step — exactly the
// points where the classic engine incremented ClassifyResult::work.
//
// Compiled hot path (DESIGN.md §9): the DFS runs over a
// CompiledCircuit — CSR adjacency, predecoded gate semantics, and the
// static per-lead side-input tables — built once per run and shared
// read-only by every worker.  Further optimizations preserve the exact
// counter streams of the pre-compilation engine:
//
//   * PI-prefix sharing: all seeds of one (primary input, final value)
//     pair start from the identical one-assignment engine state, so a
//     driver re-establishes it only when the pair changes and
//     otherwise *replays* the recorded ImplicationStats delta of the
//     cached assignment — the counters advance exactly as if the
//     assignment had been re-propagated;
//   * guard striding: WorkBudget polls the ExecGuard once every
//     kStride charges (passing the accumulated step count, so the
//     guard's work counter stays exact) plus a flush at every seed
//     boundary, instead of a poll per DFS step;
//   * subtree replay (DESIGN.md §14): an eligible driver caches each
//     finished subtree's kept count, work and stats delta under the
//     engine's value-set key and replays a repeat visit in bulk.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/classify.h"
#include "netlist/compiled.h"
#include "paths/prefix_tree.h"
#include "sim/implication.h"

namespace rd::internal {

/// One unit of shardable classification work: grow paths that start at
/// primary input `pi` with final stable value `final_value` and leave
/// it through `first_lead`.
struct ClassifySeed {
  GateId pi = kNullGate;
  bool final_value = false;
  LeadId first_lead = kNullLead;
};

/// Canonical seed order: circuit PI order, then final value
/// {false, true}, then the PI's fanout-lead order.  The serial DFS
/// visits seeds exactly in this order.
inline std::vector<ClassifySeed> enumerate_seeds(const Circuit& circuit) {
  std::vector<ClassifySeed> seeds;
  for (GateId pi : circuit.inputs())
    for (const bool final_value : {false, true})
      for (LeadId lead : circuit.gate(pi).fanout_leads)
        seeds.push_back(ClassifySeed{pi, final_value, lead});
  return seeds;
}

/// Compiles `circuit` for the DFS under `options`: the π side-input
/// tables are included exactly when the criterion consults them.
inline CompiledCircuit compile_for_classify(const Circuit& circuit,
                                            const ClassifyOptions& options) {
  if (options.criterion == Criterion::kInputSort) {
    if (options.sort == nullptr)
      throw std::invalid_argument("kInputSort requires an InputSort");
    const InputSort* sort = options.sort;
    return CompiledCircuit(
        circuit, [sort](GateId gate, std::uint32_t a, std::uint32_t b) {
          return sort->before(gate, a, b);
        });
  }
  return CompiledCircuit(circuit);
}

/// Resolves the compiled view a run should use: the caller-provided
/// options.compiled when set (validated against `circuit`; the serve
/// layer's cache hit path), else a fresh private compile parked in
/// `owned`.  The returned pointer is valid as long as `owned` and the
/// provided compiled circuit are.
inline const CompiledCircuit* resolve_compiled(
    const Circuit& circuit, const ClassifyOptions& options,
    std::unique_ptr<const CompiledCircuit>& owned) {
  if (options.compiled != nullptr) {
    if (&options.compiled->source() != &circuit)
      throw std::invalid_argument(
          "ClassifyOptions::compiled was built from a different Circuit");
    if (options.criterion == Criterion::kInputSort &&
        !options.compiled->has_low_order_tables())
      throw std::invalid_argument(
          "ClassifyOptions::compiled lacks the input sort's side tables");
    return options.compiled;
  }
  owned = std::make_unique<const CompiledCircuit>(
      compile_for_classify(circuit, options));
  return owned.get();
}

/// One worker's view of the run's work budget.  Steps are counted
/// locally and settled into the shared Record at a settle point: every
/// kStride steps, at the step that would cross work_limit, and at each
/// seed boundary (flush).  A settle adds the steps to the shared total,
/// aborts once the total exceeds work_limit, and otherwise polls the
/// guard with the same step count, so the guard's work counter
/// advances by the exact total, only in batches.
///
/// With a single worker the total is exact, so a run aborts on the
/// very step that crosses work_limit and the guard sees the same polls
/// on every rerun.  With several, the partial counts at an abort
/// depend on scheduling, but whether the run aborts depends only on
/// the (thread-count-independent) step total.
class WorkBudget {
 public:
  /// State shared by every worker of one run.  The first abort cause
  /// is recorded before any budget refuses a charge, and a recorded
  /// cause cancels the run.
  struct Record {
    Record(std::uint64_t limit, ExecGuard* guard)
        : limit(limit), guard(guard) {}
    const std::uint64_t limit;
    ExecGuard* const guard;
    std::atomic<std::uint64_t> total{0};
    std::atomic<AbortReason> reason{AbortReason::kNone};

    /// Records `cause` unless an earlier cause is recorded.
    void record(AbortReason cause) {
      AbortReason none = AbortReason::kNone;
      reason.compare_exchange_strong(none, cause, std::memory_order_relaxed);
    }
    bool cancelled() const {
      return reason.load(std::memory_order_relaxed) != AbortReason::kNone;
    }
  };

  explicit WorkBudget(Record& record) : record_(record) {
    rearm(record.total.load(std::memory_order_relaxed));
  }

  /// Charges one DFS step; false once the run is aborted.  One
  /// increment and one compare except at a settle point.
  bool charge() { return ++pending_ < settle_at_ || settle(); }

  /// True when `steps` further charges all stay within the work limit
  /// as this worker last saw it: a subtree of that many steps cannot
  /// abort on the limit, so it may be replayed in bulk instead of
  /// explored.  Exact with a single worker.
  bool fits(std::uint64_t steps) const { return steps <= headroom_ - pending_; }

  /// Charges `steps` replayed DFS steps at once (call only after
  /// fits(steps)).  The guard sees the same step total as if they had
  /// been charged one by one.
  bool charge_bulk(std::uint64_t steps) {
    pending_ += steps;
    return pending_ < settle_at_ || settle();
  }

  /// Settles the steps counted since the last settle point (call at
  /// seed boundaries, so the guard's work counter is exact between
  /// seeds).
  void flush() {
    if (pending_ != 0) settle();
  }

  ExecGuard* guard() const { return record_.guard; }

 private:
  static constexpr std::uint64_t kStride = 64;

  bool settle();

  /// Sets the next settle point from the shared total last seen.
  void rearm(std::uint64_t total) {
    headroom_ = total < record_.limit ? record_.limit - total : 0;
    settle_at_ = headroom_ < kStride ? headroom_ + 1 : kStride;
  }

  Record& record_;
  std::uint64_t pending_ = 0;    // steps charged since the last settle
  std::uint64_t settle_at_ = 0;  // pending_ value of the next settle
  std::uint64_t headroom_ = 0;   // steps left under the limit at it
};

/// Whether a run may use the subtree-replay cache.  A replayed subtree
/// reproduces counts, work and stats but not the per-path side effects
/// of its survivors — keys and lead tallies — so runs that record
/// either explore every subtree.  Circuits below kReplayMinLeads
/// (c17-sized) finish their whole DFS in microseconds, less than
/// setting up the table and the key costs.  Decided once per
/// run.
inline constexpr std::size_t kReplayMinLeads = 32;

inline bool replay_eligible(const ClassifyOptions& options,
                            const CompiledCircuit& compiled) {
  return compiled.num_leads() >= kReplayMinLeads &&
         options.collect_paths_limit == 0 && !options.collect_lead_counts;
}

/// Subtree-replay table of one SeedDfs (DESIGN.md §14).  An entry is
/// keyed by (engine value-set key, tip gate, trail size) and holds what
/// exploring the DFS subtree below that tip added: kept paths, work and
/// ImplicationStats.  Everything the engine derives is a function of
/// its value set, so the subtree's outcome is a function of the key and
/// a matching entry can stand in for the exploration.
///
/// A cache, not a map: two-way buckets, where the first way keeps the
/// bigger of the subtrees that met there (it saves the most work when
/// hit) and the second takes whatever the first turned away.
class SubtreeMemo {
 public:
  // Every count is narrowed to 32 bits (a subtree that overflows one
  // is not stored), so an entry is 48 bytes.
  struct Entry {
    StateKey state;
    GateId tip = kNullGate;
    std::uint32_t trail = 0;
    std::uint32_t kept = 0;
    std::uint32_t work = 0;
    std::uint32_t assignments = 0;
    std::uint32_t propagations = 0;
    std::uint32_t conflicts = 0;
    std::uint32_t backward = 0;

    bool matches(const StateKey& key, GateId gate,
                 std::uint32_t size) const {
      return tip == gate && trail == size && state == key;
    }

    ImplicationStats stats() const {
      return ImplicationStats{assignments, propagations, conflicts, backward};
    }
  };

  /// Buckets: one per lead of the circuit rounded up to a power of two,
  /// at most kMaxBuckets (384 KiB in all), so small circuits do not pay
  /// for a table they cannot fill.  The bytes are charged to `guard` for
  /// the table's lifetime.
  SubtreeMemo(std::size_t num_leads, ExecGuard* guard) : guard_(guard) {
    const std::size_t buckets =
        std::min(std::bit_ceil(num_leads), kMaxBuckets);
    entries_ = std::make_unique<Entry[]>(2 * buckets);
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(buckets));
    bytes_ = 2 * buckets * sizeof(Entry);
    if (guard_ != nullptr) guard_->add_memory(bytes_);
  }
  ~SubtreeMemo() {
    if (guard_ != nullptr) guard_->sub_memory(bytes_);
  }
  SubtreeMemo(const SubtreeMemo&) = delete;
  SubtreeMemo& operator=(const SubtreeMemo&) = delete;

  /// The entry recorded for (key, tip, trail), or null.
  const Entry* find(const StateKey& key, GateId tip,
                    std::uint32_t trail) const {
    const Entry* bucket = bucket_of(key, tip);
    if (bucket[0].matches(key, tip, trail)) return &bucket[0];
    if (bucket[1].matches(key, tip, trail)) return &bucket[1];
    return nullptr;
  }

  /// Records a fully explored subtree's deltas.
  void store(const StateKey& key, GateId tip, std::uint32_t trail,
             std::uint64_t kept, std::uint64_t work,
             const ImplicationStats& stats) {
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint32_t>::max();
    if ((kept | work | stats.assignments | stats.propagations |
         stats.conflicts | stats.backward) > kMax)
      return;
    const Entry entry{key,
                      tip,
                      trail,
                      static_cast<std::uint32_t>(kept),
                      static_cast<std::uint32_t>(work),
                      static_cast<std::uint32_t>(stats.assignments),
                      static_cast<std::uint32_t>(stats.propagations),
                      static_cast<std::uint32_t>(stats.conflicts),
                      static_cast<std::uint32_t>(stats.backward)};
    Entry* bucket = bucket_of(key, tip);
    if (entry.work >= bucket[0].work) {
      bucket[1] = bucket[0];
      bucket[0] = entry;
    } else {
      bucket[1] = entry;
    }
  }

 private:
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 12;

  /// The key half is already uniformly mixed; the tip is folded in so
  /// equal states under different tips spread out.
  Entry* bucket_of(const StateKey& key, GateId tip) const {
    const std::uint64_t mixed = key.lo ^ (tip * 0x9e3779b97f4a7c15ull);
    return &entries_[2 * (mixed >> shift_)];
  }

  std::unique_ptr<Entry[]> entries_;
  unsigned shift_ = 0;
  std::uint64_t bytes_ = 0;
  ExecGuard* guard_;
};

/// Per-seed outputs that must be merged in canonical seed order.
/// Survivor keys live in a pooled flat arena — recording a path never
/// heap-allocates per path; callers materialize
/// ClassifyResult::kept_keys from it during the (cold) merge.
struct SeedOutcome {
  std::uint64_t kept_paths = 0;
  std::uint64_t work = 0;
  PathKeyArena keys;
};

/// DFS driver for one worker.  Owns a private ImplicationEngine — the
/// thread-local implication invariant: no implication state is ever
/// shared between workers — over the run-shared read-only
/// CompiledCircuit, plus the worker's WorkBudget and per-lead tallies,
/// and is reused across the seeds a worker processes.  The (pi, final
/// value) assignment prefix is kept on the engine between seeds of the
/// same pair and its recorded stats delta replayed on reuse, so the
/// cumulative counters equal a per-seed re-initialization bit for bit.
class SeedDfs {
 public:
  SeedDfs(const CompiledCircuit& compiled, const ClassifyOptions& options,
          WorkBudget::Record& budget)
      : compiled_(compiled),
        options_(options),
        budget_(budget),
        engine_(compiled, options.backward_implications) {
    if (options.criterion == Criterion::kInputSort &&
        !compiled.has_low_order_tables())
      throw std::invalid_argument(
          "kInputSort requires a circuit compiled with its InputSort");
    if (options.collect_lead_counts)
      lead_counts_.assign(compiled.num_leads(), 0);
    if (replay_eligible(options, compiled)) {
      memo_ = std::make_unique<SubtreeMemo>(compiled.num_leads(),
                                            budget.guard);
      engine_.enable_key();
    }
  }
  ~SeedDfs() {
    if (key_bytes_ != 0) budget_.guard()->sub_memory(key_bytes_);
  }
  SeedDfs(const SeedDfs&) = delete;
  SeedDfs& operator=(const SeedDfs&) = delete;

  /// Settles this worker's uncharged steps (call at seed boundaries).
  void flush() { budget_.flush(); }

  /// Per-lead controlling-value survivor tallies over every seed this
  /// driver has run (empty unless collect_lead_counts; order-independent
  /// sums, so per-worker tallies merge deterministically).
  const std::vector<std::uint64_t>& lead_counts() const {
    return lead_counts_;
  }

  /// DFS steps over every seed this driver has run.
  std::uint64_t work() const { return work_; }

  /// Implication-engine event counters accumulated over every seed
  /// this driver has run (observability; merged by summation).
  const ImplicationStats& implication_stats() const {
    return engine_.stats();
  }

  /// This driver's replay-cache counters; engaged iff it has a cache.
  std::optional<MemoStats> memo_stats() const {
    if (memo_ == nullptr) return std::nullopt;
    return memo_stats_;
  }

  /// Runs one seed subtree.  `max_keys` caps this seed's key
  /// collection (the caller threads the global collect_paths_limit
  /// through it).
  SeedOutcome run_seed(const ClassifySeed& seed, std::uint64_t max_keys) {
    // Field-wise reset: `outcome_ = SeedOutcome{}` would default-build
    // (and immediately discard) a PathKeyArena, whose constructor
    // allocates — one malloc+free per seed, measurable on circuits
    // whose whole classification takes microseconds.
    outcome_.kept_paths = 0;
    outcome_.work = 0;
    outcome_.keys = std::move(arena_pool_);
    outcome_.keys.clear();
    max_keys_ = max_keys;
    current_final_pi_value_ = seed.final_value;
    ensure_prefix(seed.pi, seed.final_value);
    if (prefix_ok_) {
      // A false return means the run was aborted, which the budget
      // record already says.
      const std::size_t mark = engine_.mark();
      extend_through(seed.first_lead, seed.final_value);
      engine_.rollback(mark);
    }
    work_ += outcome_.work;
    return std::move(outcome_);
  }

  /// Returns a consumed outcome's arena to the pool so the next seed's
  /// collection reuses its capacity.
  void recycle(PathKeyArena&& arena) {
    arena_pool_ = std::move(arena);
  }

 private:
  /// Leaves the engine holding exactly the (pi, value) assignment (and
  /// its implications).  On a cache hit the assignment is not re-run;
  /// the recorded stats delta is replayed instead, so the cumulative
  /// engine counters match a from-scratch re-assignment exactly.
  void ensure_prefix(GateId pi, bool final_value) {
    if (prefix_valid_ && prefix_pi_ == pi && prefix_value_ == final_value) {
      engine_.replay_stats(prefix_delta_);
      return;
    }
    engine_.reset();
    const ImplicationStats before = engine_.stats();
    prefix_ok_ = engine_.assign(pi, to_value3(final_value));
    prefix_delta_ = engine_.stats().delta_since(before);
    prefix_pi_ = pi;
    prefix_value_ = final_value;
    prefix_valid_ = true;
  }

  /// Asserts `lead`'s side-input constraints for on-path driver value
  /// `tip_value` under the active criterion: tip_value == nc selects
  /// (FU2)/(NR2)/(π2), every side input stable non-controlling; a
  /// controlling on-path value selects nothing under (FU2), the full
  /// row under (NR2), and the low-order row under (π3).  Returns false
  /// on a local implication conflict.  After a true return the sink's
  /// stable value is implied: a controlling on-path input forces the
  /// controlled output; a non-controlling one had all side inputs
  /// pinned non-controlling.  Single-input gates imply directly.
  bool assert_lead_constraints(const CompiledLead& lead, bool tip_value) {
    if (!lead.sink_has_ctrl) return true;
    SideSpan span;
    if (tip_value == lead.sink_nc) {
      span = compiled_.side_all_span(lead);
    } else {
      switch (options_.criterion) {
        case Criterion::kFunctionalSensitizable:
          return true;
        case Criterion::kNonRobust:
          span = compiled_.side_all_span(lead);
          break;
        case Criterion::kInputSort:
          span = compiled_.side_low_span(lead);
          break;
      }
    }
    const Value3 value = to_value3(span.nc);
    for (const GateId* gate = span.begin(); gate != span.end(); ++gate)
      if (!engine_.assign(*gate, value)) return false;
    return true;
  }

  /// Extends the current segment through `lead_id`, whose driver has
  /// stable value `tip_value`: charge, assert, cut or descend, roll
  /// back.  Returns false once the run is aborted.
  bool extend_through(LeadId lead_id, bool tip_value) {
    ++outcome_.work;
    if (!budget_.charge()) return false;
    const CompiledLead& lead = compiled_.lead(lead_id);
    const std::size_t mark = engine_.mark();
    bool ok = true;
    if (assert_lead_constraints(lead, tip_value)) {
      const Value3 sink_value = engine_.value(lead.sink);
      segment_.push_back(lead_id);
      ok = extend(lead.sink, to_bool(sink_value));
      segment_.pop_back();
    }
    engine_.rollback(mark);
    return ok;
  }

  /// Extends the current segment from tip gate `tip` with stable value
  /// `tip_value` through each of its fanout leads.
  bool extend(GateId tip, bool tip_value) {
    if (compiled_.semantics(tip).type == GateType::kOutput) {
      record_survivor();
      return true;
    }
    return memo_ != nullptr ? extend_or_replay(tip, tip_value)
                            : extend_fanouts(tip, tip_value);
  }

  /// extend() through the replay cache: a subtree already explored from
  /// the same (tip, value set) is credited in bulk — its kept paths,
  /// work, stats delta and budget charges — unless the work limit
  /// would cut it short, in which case it is explored for real so the
  /// abort lands on the same step.  A fully explored subtree is stored.
  bool extend_or_replay(GateId tip, bool tip_value) {
    const StateKey key = engine_.key();
    const auto trail = static_cast<std::uint32_t>(engine_.mark());
    const SubtreeMemo::Entry* entry = memo_->find(key, tip, trail);
    ++memo_stats_.lookups;
    if (entry != nullptr && budget_.fits(entry->work)) {
      ++memo_stats_.hits;
      memo_stats_.replayed_work += entry->work;
      outcome_.kept_paths += entry->kept;
      outcome_.work += entry->work;
      engine_.replay_stats(entry->stats());
      return budget_.charge_bulk(entry->work);
    }
    const std::uint64_t kept_before = outcome_.kept_paths;
    const std::uint64_t work_before = outcome_.work;
    const ImplicationStats stats_before = engine_.stats();
    if (!extend_fanouts(tip, tip_value)) return false;
    memo_->store(key, tip, trail, outcome_.kept_paths - kept_before,
                 outcome_.work - work_before,
                 engine_.stats().delta_since(stats_before));
    return true;
  }

  bool extend_fanouts(GateId tip, bool tip_value) {
    const LeadId* lead = compiled_.fanout_lead_begin(tip);
    const LeadId* const end = lead + compiled_.fanout_count(tip);
    for (; lead != end; ++lead)
      if (!extend_through(*lead, tip_value)) return false;
    return true;
  }

  void record_survivor() {
    ++outcome_.kept_paths;
    if (outcome_.keys.size() < max_keys_) {
      // The collected keys are the one allocation that grows without
      // bound with the survivor count; charge the guard with the
      // arena's capacity *growth* so the accounting stays exact while
      // appends into pooled capacity cost nothing.  The destructor
      // releases the charge.
      ExecGuard* const guard = budget_.guard();
      const std::uint64_t before =
          guard != nullptr ? outcome_.keys.capacity_bytes() : 0;
      outcome_.keys.append(segment_, current_final_pi_value_);
      if (guard != nullptr) {
        const std::uint64_t after = outcome_.keys.capacity_bytes();
        if (after > before) {
          guard->add_memory(after - before);
          key_bytes_ += after - before;
        }
      }
    }
    if (lead_counts_.empty()) return;
    for (LeadId lead_id : segment_) {
      const CompiledLead& lead = compiled_.lead(lead_id);
      if (!lead.sink_has_ctrl) continue;
      const Value3 value = engine_.value(lead.driver);
      if (is_known(value) && to_bool(value) == !lead.sink_nc)
        ++lead_counts_[lead_id];
    }
  }

  const CompiledCircuit& compiled_;
  const ClassifyOptions& options_;
  WorkBudget budget_;
  std::vector<std::uint64_t> lead_counts_;
  std::uint64_t work_ = 0;
  std::uint64_t key_bytes_ = 0;  // key-arena bytes charged to the guard
  ImplicationEngine engine_;

  // Subtree-replay cache (null on ineligible runs, which then allocate
  // and look up nothing).
  std::unique_ptr<SubtreeMemo> memo_;
  MemoStats memo_stats_;

  std::vector<LeadId> segment_;
  SeedOutcome outcome_;
  PathKeyArena arena_pool_;
  std::uint64_t max_keys_ = 0;
  bool current_final_pi_value_ = false;

  // Shared-prefix cache: the (pi, final value) assignment currently
  // held on the engine, its conflict-free flag, and the stats delta it
  // cost when first established.
  bool prefix_valid_ = false;
  bool prefix_ok_ = false;
  GateId prefix_pi_ = kNullGate;
  bool prefix_value_ = false;
  ImplicationStats prefix_delta_;
};

/// Shared post-pass: structural totals and RD percentages.
inline void finish_classify_result(const Circuit& circuit,
                                   ClassifyResult* result) {
  const PathCounts counts(circuit);
  result->total_logical = counts.total_logical();
  if (result->completed) {
    result->rd_paths = result->total_logical - BigUint(result->kept_paths);
    // Guard the percentage against total_logical == 0 (no paths) and
    // against BigUint::to_double overflowing to infinity, where the
    // naive 100*inf/inf would poison rd_percent with NaN.
    const double total = result->total_logical.to_double();
    const double rd = result->rd_paths.to_double();
    double percent = 0.0;
    if (total > 0) {
      percent = std::isfinite(total) && std::isfinite(rd)
                    ? 100.0 * rd / total
                    : 100.0;  // totals beyond double range: rd dominates
    }
    result->rd_percent = std::isfinite(percent) ? percent : 0.0;
  }
}

}  // namespace rd::internal
