// Trail-based three-valued implication engine over a compiled circuit.
//
// This is the workhorse behind the paper's "local implications" check
// (Algorithm 2, following Cheng & Chen [2]): the RD-set classifiers
// assert stable values on gate outputs — the on-path PI value and the
// side-input constraints (FU2)/(NR2)/(π2)(π3) — and this engine
// propagates the direct (local) logic consequences forward and backward
// through the circuit.  A derived conflict proves no input vector can
// satisfy the constraints, so the path segment under consideration is
// robust dependent; no conflict keeps the path conservatively.
//
// Assignments are recorded on a trail so a classifier's depth-first
// search can cheaply undo to any earlier mark, SAT-solver style.
//
// Since a lead always carries its driver gate's output value, values
// live on gate outputs only.
//
// Hot-path layout (the compiled execution layer, see DESIGN.md §9):
//
//   * the engine walks a CompiledCircuit — flat CSR fanin/fanout
//     arrays plus 8-byte predecoded GateSemantics — instead of the
//     pointer-chasing Gate objects of the analysis netlist;
//   * values are epoch-stamped: a value is known iff its stamp equals
//     the engine's current epoch, so reset() is a counter bump plus a
//     trail clear (O(1)) instead of an O(V) wipe.  Thousands of DFS
//     seeds per classification reset this engine; none of them pays a
//     per-gate clear;
//   * gate examination is counter-based, watched-literal style: each
//     gate carries epoch-stamped counts of its known and controlling
//     fanins, maintained incrementally by set_value/rollback, so
//     examine() decides forward/backward implications from two O(1)
//     loads instead of re-scanning the fanin list on every queue pop
//     (the pre-compilation engine's dominant cost — most pops derive
//     nothing, and paid a full scan to find that out).  The fanin scan
//     survives only inside the two backward rules that need fanin
//     *identities*, which fire comparatively rarely.
//
// The event stream (ImplicationStats) and every derived value are
// bit-identical to the frozen pre-compilation engine
// (sim/implication_reference.h); tests/compiled_test.cpp enforces it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "netlist/circuit.h"
#include "netlist/compiled.h"
#include "sim/value.h"

namespace rd {

/// Cumulative event counters of one ImplicationEngine.  Plain uint64
/// increments on the hot path — snapshotted into the metrics registry
/// at run granularity by the orchestration layer.  Counts are
/// deterministic for a fixed assignment sequence; engines owned by
/// different workers are merged by summation (commutative).
struct ImplicationStats {
  std::uint64_t assignments = 0;     // values placed on the trail
  std::uint64_t propagations = 0;    // gates examined by propagate()
  std::uint64_t conflicts = 0;       // contradictions found
  std::uint64_t backward = 0;        // values derived by backward reasoning

  void merge(const ImplicationStats& other) {
    assignments += other.assignments;
    propagations += other.propagations;
    conflicts += other.conflicts;
    backward += other.backward;
  }

  /// Counter deltas accumulated since the `before` snapshot (used to
  /// record a replayable prefix, see ImplicationEngine::replay_stats).
  ImplicationStats delta_since(const ImplicationStats& before) const {
    return ImplicationStats{assignments - before.assignments,
                            propagations - before.propagations,
                            conflicts - before.conflicts,
                            backward - before.backward};
  }

  bool operator==(const ImplicationStats&) const = default;
};

class ImplicationEngine {
 public:
  /// Runs over a caller-owned CompiledCircuit (shared read-only across
  /// engines/threads; must outlive this engine).  This is the form the
  /// classification workers use — the compile cost is paid once per
  /// run, not once per worker.
  ///
  /// `backward_implications` can be disabled to measure how much of
  /// the RD identification quality comes from backward reasoning (the
  /// ablation benchmark); production callers leave it on.
  explicit ImplicationEngine(const CompiledCircuit& compiled,
                             bool backward_implications = true);

  /// Convenience for one-shot callers (ATPG search, single-path
  /// queries): compiles `circuit` privately.  Prefer the
  /// CompiledCircuit overload when several engines or repeated calls
  /// share one circuit.
  explicit ImplicationEngine(const Circuit& circuit,
                             bool backward_implications = true);

  /// Asserts gate `id`'s stable output value and propagates local
  /// implications.  Returns false on conflict.  In both cases every
  /// value set is recorded on the trail; after a conflict the caller
  /// undoes to its mark before continuing.
  bool assign(GateId id, Value3 value);

  /// Current trail position (a watermark), to be passed to rollback
  /// later.  Watermarks nest: any prefix of the trail is a valid
  /// rollback target until the next reset() invalidates them all.
  std::size_t mark() const { return trail_size_; }

  /// Undoes all assignments made after watermark `mark`, in O(undone):
  /// descending to a sibling subtree costs only the divergent suffix,
  /// never a full reset + replay.  Stats are cumulative and unaffected
  /// (they measure work done, not state held).
  void rollback(std::size_t mark);

  /// Legacy spelling of rollback(mark), kept because the frozen
  /// ReferenceImplicationEngine (whose API must not change) still uses
  /// it and differential drivers template over both engines.
  void undo_to(std::size_t mark) { rollback(mark); }

  /// A watermark paired with the counter snapshot taken alongside it.
  /// checkpoint()/rollback(Checkpoint) bracket *disownable* work: state
  /// and charges both return to the capture point — the primitive
  /// behind charge-free prefix replay when a worker adopts a stolen
  /// path-tree node (core/classify_dfs.h run_subtree).
  struct Checkpoint {
    std::size_t trail_mark = 0;
    ImplicationStats stats;
  };

  Checkpoint checkpoint() const { return Checkpoint{trail_size_, stats_}; }

  /// Undoes state *and* counters back to a checkpoint: the work done
  /// since capture is disowned as if it never ran.
  void rollback(const Checkpoint& at) {
    rollback(at.trail_mark);
    stats_ = at.stats;
  }

  /// Forgets every assignment in O(1) (epoch bump + trail clear).
  /// Invalidates outstanding marks: after reset(), mark() == 0.
  /// Stats are cumulative and unaffected, exactly like rollback.
  void reset();

  /// Current value of a gate's output (kUnknown if unassigned).
  Value3 value(GateId id) const {
    const std::uint64_t half = states_[id].value_half;
    return static_cast<std::uint32_t>(half) == epoch_ ? unpack_value(half)
                                                      : Value3::kUnknown;
  }

  /// Number of gates whose value is currently known (for diagnostics).
  std::size_t num_assigned() const { return trail_size_; }

  /// Cumulative event counters since construction (undo does not roll
  /// them back — they measure work done, not state held).
  const ImplicationStats& stats() const { return stats_; }

  /// Credits the counters of work that was *not* re-executed because
  /// its outcome was cached (the classifier's shared PI-assignment
  /// prefix).  Keeps the cumulative event stream bit-identical to an
  /// engine that re-ran the assignment sequence from scratch.
  void replay_stats(const ImplicationStats& delta) { stats_.merge(delta); }

  /// Inverse of replay_stats: rewinds the counters to `snapshot`
  /// without touching the trail.  This disowns charges for work that
  /// *was* physically executed but is logically cached — a thief
  /// replaying an already-charged path-tree prefix keeps the state the
  /// replay built while the charge stream stays bit-identical to the
  /// serial engine, which established that prefix exactly once.
  void restore_stats(const ImplicationStats& snapshot) { stats_ = snapshot; }

  const CompiledCircuit& compiled() const { return *compiled_; }

 private:
  /// Records a value (must currently be unknown) and schedules
  /// re-examination of the gate and its sinks.
  void set_value(GateId id, Value3 value);

  /// Force-inlined body of set_value for the hot forward-derivation
  /// sites inside examine(); set_value is its out-of-line wrapper for
  /// the cold sites.
  void set_value_inline(GateId id, Value3 value);

  /// Examines one gate (given as its packed GateWord, the queue's
  /// element type): forward-evaluates it and applies backward
  /// implications from its output to its inputs.  Returns false on
  /// conflict.  Force-inlined into propagate()'s drain loop.
  bool examine(GateWord word);

  /// Drains the propagation queue.  Returns false on conflict.
  bool propagate();

  // The complete epoch-stamped dynamic state of one gate, packed into
  // 16 aligned bytes so examine() reads it in one cache access.  Each
  // half is a single 64-bit word written and read whole — set_value
  // stores a freshly-set state and the sink is typically popped and
  // examined a handful of instructions later, so the store must
  // forward cleanly to the load (two narrow stores feeding one wide
  // load stall the pipeline on every such pop).
  //
  //   * value_half: epoch stamp in the low 32 bits, the Value3 in
  //     bits 32..39.  The value is meaningful iff the stamp equals the
  //     engine's current epoch (epoch 0 is "never assigned").
  //   * counter_half: epoch stamp in the low 32 bits, the fanin
  //     tallies in the high 32 — known-valued pins in bits 32..47,
  //     controlling-valued pins in bits 48..63 (pins, not distinct
  //     gates: a driver on two pins counts twice, matching a fanin
  //     scan).  Meaningful iff the stamp matches, else all-zero.  The
  //     packing lets set_value and rollback maintain both counts with
  //     a single load-add-store per sink.
  //
  // The two stamps are independent: counters go live when a *fanin*
  // is first assigned, the value when the gate itself is.
  struct alignas(16) GateState {
    std::uint64_t value_half = 0;
    std::uint64_t counter_half = 0;
  };

  static std::uint64_t pack_value(std::uint32_t epoch, Value3 value) {
    return epoch |
           (static_cast<std::uint64_t>(static_cast<std::uint8_t>(value))
            << 32);
  }
  static Value3 unpack_value(std::uint64_t half) {
    return static_cast<Value3>(static_cast<std::uint8_t>(half >> 32));
  }

  /// The counter_half increment contributed by one assigned fanin pin:
  /// 1 known pin, plus 1 controlling pin iff it carries `ctrl`.
  static std::uint64_t tally_delta(Value3 value, Value3 ctrl) {
    return (1ull << 32) +
           (static_cast<std::uint64_t>(value == ctrl) << 48);
  }

  std::unique_ptr<CompiledCircuit> owned_;  // only for the Circuit ctor
  const CompiledCircuit* compiled_;
  bool backward_implications_;

  std::vector<GateState> states_;
  std::uint32_t epoch_ = 1;

  // Trail and propagation queue as fixed-capacity buffers with manual
  // cursors (no per-push capacity branch).  The trail holds at most
  // one entry per gate; one assign() pushes at most 1 + Σ(1 +
  // fanouts(g)) = 1 + num_gates + num_leads queue entries, since
  // set_value fires at most once per gate between undos.  A trail
  // entry is a gate id (low 32 bits) packed with the value it was
  // assigned (bits 32..39, same shape as value_half), so rollback
  // rolls back sink tallies without re-reading the state record.
  // The queue holds packed GateWords (the fanout streams already carry
  // them), so a pop hands examine() the gate's full semantics without
  // an indexed load into the semantics table.
  // One backing allocation for both fixed-capacity buffers (the
  // classify path builds an engine per run; on microsecond circuits
  // every ctor malloc shows in bench_micro's small-circuit rows):
  // trail_ = scratch_[0 .. num_gates), queue_ = the rest.  The raw
  // pointers stay valid across vector moves (the heap buffer
  // transfers wholesale).
  std::vector<std::uint64_t> scratch_;
  std::uint64_t* trail_ = nullptr;
  GateWord* queue_ = nullptr;
  std::size_t trail_size_ = 0;
  std::size_t queue_head_ = 0;
  std::size_t queue_tail_ = 0;
  ImplicationStats stats_;
};

}  // namespace rd
