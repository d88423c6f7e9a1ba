#include "sim/implication.h"

#include <algorithm>
#include <limits>

namespace rd {

ImplicationEngine::ImplicationEngine(const CompiledCircuit& compiled,
                                     bool backward_implications)
    : compiled_(&compiled),
      backward_implications_(backward_implications),
      states_(compiled.num_gates()),
      scratch_(2 * compiled.num_gates() + compiled.num_leads() + 1),
      trail_(scratch_.data()),
      queue_(scratch_.data() + compiled.num_gates()) {}

ImplicationEngine::ImplicationEngine(const Circuit& circuit,
                                     bool backward_implications)
    : owned_(std::make_unique<CompiledCircuit>(circuit)),
      compiled_(owned_.get()),
      backward_implications_(backward_implications),
      states_(circuit.num_gates()),
      scratch_(2 * circuit.num_gates() + circuit.num_leads() + 1),
      trail_(scratch_.data()),
      queue_(scratch_.data() + circuit.num_gates()) {}

bool ImplicationEngine::assign(GateId id, Value3 value) {
  if (!is_known(value)) return true;
  const Value3 current = this->value(id);
  if (is_known(current)) {
    if (current != value) ++stats_.conflicts;
    return current == value;
  }
  queue_head_ = 0;
  queue_tail_ = 0;
  const std::size_t trail_before = trail_size_;
  set_value(id, value);
  const bool ok = propagate();
  // Event counters charged as batches after the drain instead of
  // inside the hot loops, without changing their values: one pop = one
  // propagation event (a conflicted drain stops right after the
  // failing pop, so the batch is still exact), and one trail entry =
  // one assignment event (the trail only grows during a drain).
  stats_.propagations += queue_head_;
  stats_.assignments += trail_size_ - trail_before;
  if (!ok) ++stats_.conflicts;
  return ok;
}

void ImplicationEngine::rollback(std::size_t mark) {
  while (trail_size_ > mark) {
    // The trail entry carries the assigned value, so the undo never
    // has to read the state record back before clearing it.
    const std::uint64_t entry = trail_[--trail_size_];
    const GateId id = static_cast<GateId>(entry);
    const Value3 value = unpack_value(entry);
    states_[id].value_half = 0;
    if (key_enabled_) toggle_key(entry);
    // Roll the sinks' fanin tallies back.  Their counter epochs are
    // necessarily current: set_value stamped them when `id` was set.
    const GateWord* sink = compiled_->fanout_sink_begin(id);
    const GateWord* const end = sink + compiled_->fanout_count(id);
    for (; sink != end; ++sink)
      states_[gate_word::id(*sink)].counter_half -=
          tally_delta(value, gate_word::ctrl(*sink));
  }
}

namespace {

// Output k of the splitmix64 sequence seeded with 0.
std::uint64_t splitmix64_at(std::uint64_t k) {
  std::uint64_t z = k * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

void ImplicationEngine::enable_key() {
  if (key_enabled_) return;
  key_enabled_ = true;
  // Fixed words, the same for every engine and run: (gate g, value v)
  // takes outputs 4g + 2v + 1 and 4g + 2v + 2 of splitmix64, which are
  // pairwise distinct because splitmix64 is a bijection.
  key_words_.resize(2 * states_.size());
  for (std::uint64_t i = 0; i < key_words_.size(); ++i)
    key_words_[i] =
        StateKey{splitmix64_at(2 * i + 1), splitmix64_at(2 * i + 2)};
  for (std::size_t i = 0; i < trail_size_; ++i) toggle_key(trail_[i]);
}

void ImplicationEngine::reset() {
  trail_size_ = 0;
  queue_head_ = 0;
  queue_tail_ = 0;
  key_ = StateKey{};
  if (epoch_ == std::numeric_limits<std::uint32_t>::max()) {
    // Epoch wrap (once per ~4e9 resets): fall back to the O(V) wipe so
    // stale stamps from the previous cycle can never alias.
    std::fill(states_.begin(), states_.end(), GateState{});
    epoch_ = 1;
    return;
  }
  ++epoch_;
}

// The out-of-line wrapper serves the cold call sites (assign roots,
// backward-rule scans); the hot forward-derivation sites in examine()
// call the force-inlined body directly so the drain loop keeps its
// registers across the common derivation.
__attribute__((always_inline)) inline void ImplicationEngine::set_value_inline(
    GateId id, Value3 value) {
  states_[id].value_half = pack_value(epoch_, value);
  const std::uint64_t entry = pack_value(id, value);
  trail_[trail_size_++] = entry;
  if (key_enabled_) toggle_key(entry);
  GateWord* const queue = queue_;
  GateState* const states = states_.data();
  const std::uint32_t epoch = epoch_;
  std::size_t tail = queue_tail_;
  queue[tail++] = compiled_->gate_words()[id];
  const GateWord* sink = compiled_->fanout_sink_begin(id);
  const GateWord* const end = sink + compiled_->fanout_count(id);
  for (; sink != end; ++sink) {
    const GateWord word = *sink;
    queue[tail++] = word;
    GateState& counter = states[gate_word::id(word)];
    // Branchless stale-counter revival: zero the tallies when the
    // stamp is from an older epoch, then bump — compiles to cmov
    // instead of a poorly predicted first-touch branch.
    const std::uint64_t half = counter.counter_half;
    const std::uint64_t live_tallies =
        static_cast<std::uint32_t>(half) == epoch
            ? half & 0xFFFFFFFF00000000ull
            : 0ull;
    counter.counter_half =
        (live_tallies | epoch) + tally_delta(value, gate_word::ctrl(word));
  }
  queue_tail_ = tail;
}

void ImplicationEngine::set_value(GateId id, Value3 value) {
  set_value_inline(id, value);
}

bool ImplicationEngine::propagate() {
  while (queue_head_ != queue_tail_) {
    const GateWord word = queue_[queue_head_++];
    if (!examine(word)) return false;
  }
  return true;
}

// Forced into propagate()'s drain loop: one call per queue pop is the
// hottest edge in the whole classifier, and keeping the loop state in
// registers across the examination is worth more than the code size.
//
// The queue entry is a packed GateWord, so the gate's entire static
// semantics arrive with the pop — decoding them is shift-and-mask ALU
// work, and the only dependent memory access left on the skip/verify
// fast path is the GateState load.
__attribute__((always_inline)) inline bool ImplicationEngine::examine(
    GateWord word) {
  const GateId id = gate_word::id(word);
  const GateSemantics::Kind kind = gate_word::kind(word);
  // One 16-byte load covers both the gate's value and its fanin
  // tallies (a value() call would reload the same record below).
  const GateState state = states_[id];
  const bool out_known =
      static_cast<std::uint32_t>(state.value_half) == epoch_;
  const Value3 out = out_known ? unpack_value(state.value_half)
                               : Value3::kUnknown;

  // Gates with a controlling value (semantics predecoded at compile)
  // come first: they are the bulk of every circuit and of every queue.
  // The fanin tallies maintained by set_value/rollback stand in for the
  // classic fanin scan: unknown pins = total pins - known pins, and a
  // controlling pin exists iff the ctrl tally is nonzero.  The scan
  // survives only in the backward rules that need pin identities.
  if (kind == GateSemantics::Kind::kControlling) {
    const std::uint32_t tallies =
        static_cast<std::uint32_t>(state.counter_half) == epoch_
            ? static_cast<std::uint32_t>(state.counter_half >> 32)
            : 0u;
    const bool any_controlling = (tallies >> 16) != 0;
    const std::uint32_t unknown_count =
        gate_word::fanin_count(word) - (tallies & 0xFFFFu);

    // The forward rules collapse to one forced-output computation:
    // a controlling input forces out_controlled, an all-known
    // non-controlling fanin forces out_noncontrolled (a controlling
    // pin wins when both hold, matching the classic rule order).
    const bool forced = any_controlling | (unknown_count == 0);
    const Value3 expected = any_controlling
                                ? gate_word::out_controlled(word)
                                : gate_word::out_noncontrolled(word);

    // Three of the four (forced, out_known) cases — the no-op skip,
    // the verify-pass, and the verify-conflict — are pure boolean
    // results, so they share one branchless return behind a single
    // well-predicted branch.  Only the two state-mutating actions
    // (forward derivation, backward reasoning) take the cold side.
    const bool act_forward = forced & !out_known;
    const bool act_backward = out_known & !forced;
    if (__builtin_expect(!(act_forward | act_backward), 1))
      return !forced | (out == expected);
    if (act_forward) {
      set_value_inline(id, expected);
      return true;
    }

    // Backward implication: output known, no controlling input known,
    // some pin unknown.
    if (!backward_implications_) return true;
    const GateId* const fanin_begin = compiled_->fanin_begin(id);
    const GateId* const fanin_end =
        fanin_begin + gate_word::fanin_count(word);
    if (out == gate_word::out_noncontrolled(word)) {
      // Every input must be non-controlling.
      for (const GateId* fanin = fanin_begin; fanin != fanin_end; ++fanin)
        if (!is_known(value(*fanin))) {
          ++stats_.backward;
          set_value(*fanin, gate_word::noncontrolling(word));
        }
      return true;
    }
    // Output is the controlled value but no controlling input is
    // known: if exactly one input is unknown it must be controlling.
    if (unknown_count == 1) {
      GateId last_unknown = kNullGate;
      for (const GateId* fanin = fanin_begin; fanin != fanin_end; ++fanin)
        if (!is_known(value(*fanin))) last_unknown = *fanin;
      ++stats_.backward;
      set_value(last_unknown, gate_word::ctrl(word));
    }
    return true;
  }

  if (kind == GateSemantics::Kind::kInput) return true;

  // Single-input gates: value equivalence (modulo inversion), under
  // the same branch discipline as the controlling block — skip,
  // verify-pass and verify-conflict share one branchless return.
  const bool inverting = kind == GateSemantics::Kind::kSingleInv;
  const GateId source = compiled_->single_sources()[id];
  const std::uint64_t source_half = states_[source].value_half;
  const bool in_known = static_cast<std::uint32_t>(source_half) == epoch_;
  const Value3 in = unpack_value(source_half);
  const Value3 implied = inverting ? negate(in) : in;
  const bool act_forward = in_known & !out_known;
  const bool act_backward = out_known & !in_known;
  if (__builtin_expect(!(act_forward | act_backward), 1))
    return !in_known | (out == implied);
  if (act_forward) {
    set_value_inline(id, implied);
    return true;
  }
  if (backward_implications_) {
    ++stats_.backward;
    set_value(source, inverting ? negate(out) : out);
  }
  return true;
}

}  // namespace rd
