// The compiled execution layer (DESIGN.md §9), tested at each level:
//
//   * CompiledCircuit — the CSR adjacency, predecoded semantics,
//     packed GateWords and static side-input tables must reproduce the
//     analysis Circuit exactly;
//   * ImplicationEngine — epoch-stamped reset semantics, and
//     bit-identical values + event counters against the frozen
//     pre-compilation engine (sim/implication_reference.h) under
//     randomized assign/undo driving: exhaustive ternary truth tables,
//     sibling-program bursts on one reused engine, branches over a
//     live base state, hand-checked single-literal consequence sets
//     and a c880-sized mark/rollback/reset sweep;
//   * classification — the compiled serial and parallel engines must
//     match classify_paths_reference on every deterministic field,
//     across a generator corpus, all criteria, 1/2/4 threads and
//     frontier-starving trees;
//   * guard striding — batching ExecGuard polls must not change the
//     first-trip AbortReason, the exactness of the guard's work
//     accounting, or the determinism of partial counts.
//
// Some suite names (BitparEquivalenceTest, BaseOverlayTest,
// LaneDegeneracyTest, ClosureConsequences, ClosureEngine) predate the
// removal of the lane engine and the static closure (DESIGN.md
// "Removed accelerators"), which these tests used to check against the
// scalar engine; they are kept so the test ids stay stable.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/classify.h"
#include "core/heuristics.h"
#include "core/input_sort.h"
#include "gen/examples.h"
#include "gen/iscas_like.h"
#include "gen/pla_like.h"
#include "netlist/compiled.h"
#include "netlist/gate_types.h"
#include "sim/implication.h"
#include "sim/implication_reference.h"
#include "sim/value.h"
#include "synth/synth.h"
#include "util/exec_guard.h"
#include "util/rng.h"

namespace rd {
namespace {

Circuit mcnc_like() {
  PlaProfile profile;
  profile.name = "mcnc-like";
  profile.num_inputs = 10;
  profile.num_outputs = 6;
  profile.num_cubes = 40;
  profile.min_literals = 2;
  profile.max_literals = 5;
  profile.seed = 11;
  return synthesize_multilevel(make_pla_like(profile));
}

Circuit iscas_like(std::uint64_t seed) {
  IscasProfile profile;
  profile.name = "cmp" + std::to_string(seed);
  profile.num_inputs = 8;
  profile.num_outputs = 4;
  profile.num_gates = 34;
  profile.num_levels = 6;
  profile.xor_fraction = 0.15;
  profile.seed = seed;
  return make_iscas_like(profile);
}

std::vector<Circuit> structure_corpus() {
  std::vector<Circuit> corpus;
  corpus.push_back(paper_example_circuit());
  corpus.push_back(c17());
  corpus.push_back(iscas_like(1));
  corpus.push_back(mcnc_like());
  return corpus;
}

// ---------------------------------------------------------------- CSR

TEST(CompiledCircuitTest, CsrAdjacencyMatchesCircuit) {
  for (const Circuit& circuit : structure_corpus()) {
    const CompiledCircuit compiled(circuit);
    ASSERT_EQ(compiled.num_gates(), circuit.num_gates());
    ASSERT_EQ(compiled.num_leads(), circuit.num_leads());
    EXPECT_FALSE(compiled.has_low_order_tables());
    for (GateId id = 0; id < circuit.num_gates(); ++id) {
      const Gate& gate = circuit.gate(id);
      ASSERT_EQ(compiled.fanin_count(id), gate.fanins.size());
      const GateId* fanin = compiled.fanin_begin(id);
      for (std::size_t i = 0; i < gate.fanins.size(); ++i)
        EXPECT_EQ(fanin[i], gate.fanins[i]);
      ASSERT_EQ(compiled.fanout_count(id), gate.fanout_leads.size());
      const LeadId* lead = compiled.fanout_lead_begin(id);
      const GateWord* sink = compiled.fanout_sink_begin(id);
      for (std::size_t i = 0; i < gate.fanout_leads.size(); ++i) {
        EXPECT_EQ(lead[i], gate.fanout_leads[i]);
        // The fused fanout stream carries the sink's full gate word.
        EXPECT_EQ(sink[i], compiled.gate_words()[circuit.lead(lead[i]).sink]);
      }
    }
  }
}

TEST(CompiledCircuitTest, GateWordsRoundTripSemantics) {
  for (const Circuit& circuit : structure_corpus()) {
    const CompiledCircuit compiled(circuit);
    for (GateId id = 0; id < circuit.num_gates(); ++id) {
      const Gate& gate = circuit.gate(id);
      const GateSemantics& sem = compiled.semantics(id);
      EXPECT_EQ(sem.type, gate.type);
      EXPECT_EQ(sem.fanin_count, gate.fanins.size());
      if (has_controlling_value(gate.type)) {
        ASSERT_EQ(sem.kind, GateSemantics::Kind::kControlling);
        EXPECT_EQ(sem.ctrl, to_value3(controlling_value(gate.type)));
        EXPECT_EQ(sem.noncontrolling,
                  to_value3(!controlling_value(gate.type)));
        EXPECT_EQ(sem.out_controlled,
                  to_value3(controlled_output(gate.type)));
        EXPECT_EQ(sem.out_noncontrolled,
                  to_value3(noncontrolled_output(gate.type)));
      }
      // Every field the drain loop decodes from the packed word must
      // survive the round trip.
      const GateWord word = compiled.gate_words()[id];
      EXPECT_EQ(gate_word::id(word), id);
      EXPECT_EQ(gate_word::kind(word), sem.kind);
      EXPECT_EQ(gate_word::fanin_count(word), sem.fanin_count);
      if (sem.kind == GateSemantics::Kind::kControlling) {
        EXPECT_EQ(gate_word::ctrl(word), sem.ctrl);
        EXPECT_EQ(gate_word::noncontrolling(word), sem.noncontrolling);
        EXPECT_EQ(gate_word::out_controlled(word), sem.out_controlled);
        EXPECT_EQ(gate_word::out_noncontrolled(word),
                  sem.out_noncontrolled);
      }
    }
  }
}

TEST(CompiledCircuitTest, SideTablesMatchPinLoops) {
  for (const Circuit& circuit : structure_corpus()) {
    const InputSort sort = heuristic1_sort(circuit);
    const CompiledCircuit compiled(
        circuit, [&sort](GateId gate, std::uint32_t a, std::uint32_t b) {
          return sort.before(gate, a, b);
        });
    EXPECT_TRUE(compiled.has_low_order_tables());
    for (LeadId lead_id = 0; lead_id < circuit.num_leads(); ++lead_id) {
      const Lead& lead = circuit.lead(lead_id);
      const Gate& sink = circuit.gate(lead.sink);
      const CompiledLead& row = compiled.lead(lead_id);
      EXPECT_EQ(row.driver, lead.driver);
      EXPECT_EQ(row.sink, lead.sink);
      EXPECT_EQ(row.pin, lead.pin);
      ASSERT_EQ(row.sink_has_ctrl, has_controlling_value(sink.type));
      if (!row.sink_has_ctrl) continue;
      EXPECT_EQ(row.sink_nc, noncontrolling_value(sink.type));
      // Recompute both side-input lists with the classic pin loop; the
      // precompiled rows must match element for element (pin order).
      std::vector<GateId> side_all;
      std::vector<GateId> side_low;
      for (std::uint32_t pin = 0; pin < sink.fanins.size(); ++pin) {
        if (pin == lead.pin) continue;
        side_all.push_back(sink.fanins[pin]);
        if (sort.before(lead.sink, pin, lead.pin))
          side_low.push_back(sink.fanins[pin]);
      }
      ASSERT_EQ(row.side_all_count, side_all.size());
      ASSERT_EQ(row.side_low_count, side_low.size());
      for (std::size_t i = 0; i < side_all.size(); ++i)
        EXPECT_EQ(compiled.side_all_begin(row)[i], side_all[i]);
      for (std::size_t i = 0; i < side_low.size(); ++i)
        EXPECT_EQ(compiled.side_low_begin(row)[i], side_low[i]);
    }
  }
}

// -------------------------------------------------------- epoch reset

TEST(EpochResetTest, ResetForgetsEverythingAndInvalidatesMarks) {
  const Circuit circuit = c17();
  const CompiledCircuit compiled(circuit);
  ImplicationEngine engine(compiled);
  ASSERT_TRUE(engine.assign(circuit.inputs()[0], Value3::kOne));
  ASSERT_TRUE(engine.assign(circuit.inputs()[1], Value3::kZero));
  ASSERT_GT(engine.num_assigned(), 0u);
  engine.reset();
  EXPECT_EQ(engine.mark(), 0u);
  EXPECT_EQ(engine.num_assigned(), 0u);
  for (GateId id = 0; id < circuit.num_gates(); ++id)
    EXPECT_EQ(engine.value(id), Value3::kUnknown);
}

TEST(EpochResetTest, StaleStampsNeverLeakAcrossEpochs) {
  // Drive the same assignment sequence in every epoch; the derived
  // values and the per-epoch stats delta must be identical each time
  // (a stale value stamp or unrevived fanin tally from an earlier
  // epoch would change either).
  const Circuit circuit = iscas_like(3);
  const CompiledCircuit compiled(circuit);
  ImplicationEngine engine(compiled);
  std::vector<Value3> first_values;
  ImplicationStats first_delta;
  for (int epoch = 0; epoch < 200; ++epoch) {
    engine.reset();
    const ImplicationStats before = engine.stats();
    Rng rng(42);  // same sequence every epoch
    for (int i = 0; i < 12; ++i) {
      const GateId gate =
          static_cast<GateId>(rng.next_below(circuit.num_gates()));
      if (!engine.assign(gate,
                         rng.next_bool(0.5) ? Value3::kOne : Value3::kZero))
        break;
    }
    std::vector<Value3> values(circuit.num_gates());
    for (GateId id = 0; id < circuit.num_gates(); ++id)
      values[id] = engine.value(id);
    const ImplicationStats delta = engine.stats().delta_since(before);
    if (epoch == 0) {
      first_values = values;
      first_delta = delta;
      continue;
    }
    ASSERT_EQ(values, first_values) << "epoch " << epoch;
    ASSERT_EQ(delta, first_delta) << "epoch " << epoch;
  }
}

// -------------------------------------------- engine differential

TEST(EngineEquivalenceTest, RandomAssignUndoBurstsMatchReference) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Circuit circuit = iscas_like(seed);
    const CompiledCircuit compiled(circuit);
    ImplicationEngine engine(compiled);
    ReferenceImplicationEngine reference(circuit);
    Rng rng(seed * 977);
    for (int burst = 0; burst < 300; ++burst) {
      const std::size_t mark = engine.mark();
      const std::size_t reference_mark = reference.mark();
      ASSERT_EQ(mark, reference_mark);
      for (int i = 0; i < 6; ++i) {
        const GateId gate =
            static_cast<GateId>(rng.next_below(circuit.num_gates()));
        const Value3 value =
            rng.next_bool(0.5) ? Value3::kOne : Value3::kZero;
        const bool ok = engine.assign(gate, value);
        const bool reference_ok = reference.assign(gate, value);
        ASSERT_EQ(ok, reference_ok);
        if (!ok) break;
      }
      for (GateId id = 0; id < circuit.num_gates(); ++id)
        ASSERT_EQ(engine.value(id), reference.value(id))
            << "seed " << seed << " burst " << burst << " gate " << id;
      // Alternate between full and partial rollback.
      const std::size_t target =
          burst % 3 == 0 ? mark
                         : mark + (engine.mark() - mark) / 2;
      engine.undo_to(target);
      reference.undo_to(target);
      if (burst % 7 == 0) {
        engine.undo_to(0);
        reference.undo_to(0);
      }
    }
    engine.undo_to(0);
    reference.undo_to(0);
    // The cumulative event streams must agree exactly, not just the
    // final values: the stats are part of the bit-identity contract.
    EXPECT_EQ(engine.stats(), reference.stats()) << "seed " << seed;
  }
}

// ------------------------------------- exhaustive gate truth tables

// One single-gate circuit per gate type: n inputs -> gate -> output.
Circuit single_gate_circuit(GateType type, unsigned arity) {
  Circuit circuit("tt");
  std::vector<GateId> inputs;
  for (unsigned i = 0; i < arity; ++i)
    inputs.push_back(circuit.add_input("i" + std::to_string(i)));
  const GateId g = circuit.add_gate(type, "g", inputs);
  circuit.add_output("o", g);
  circuit.finalize();
  return circuit;
}

constexpr Value3 kTernary[3] = {Value3::kZero, Value3::kOne,
                                Value3::kUnknown};

using Program = std::vector<std::pair<GateId, Value3>>;

// Runs `program` on a fresh compiled engine and a fresh reference
// engine in lockstep, stopping at the first conflict.  Verdicts, every
// gate's final value and the event counters must agree; returns the
// compiled engine's overall verdict.
bool expect_program_matches_reference(const Circuit& circuit,
                                      const Program& program) {
  ImplicationEngine engine(circuit);
  ReferenceImplicationEngine reference(circuit);
  bool ok = true;
  for (const auto& [gate, value] : program) {
    ok = engine.assign(gate, value);
    EXPECT_EQ(ok, reference.assign(gate, value)) << "gate " << gate;
    if (!ok) break;
  }
  for (GateId id = 0; id < circuit.num_gates(); ++id)
    EXPECT_EQ(engine.value(id), reference.value(id)) << "gate " << id;
  EXPECT_EQ(engine.stats(), reference.stats());
  return ok;
}

TEST(TruthTableTest, ForwardExhaustiveTernary) {
  // Every ternary input combination: the gate output must come out as
  // eval_gate3 says, and the whole engine state must match the
  // reference engine's.
  for (GateType type : {GateType::kAnd, GateType::kOr, GateType::kNand,
                        GateType::kNor}) {
    for (unsigned arity : {2u, 3u}) {
      const Circuit circuit = single_gate_circuit(type, arity);
      const GateId g = circuit.inputs().back() + 1;  // the lone gate
      ASSERT_EQ(circuit.gate(g).type, type);
      std::size_t combos = 1;
      for (unsigned i = 0; i < arity; ++i) combos *= 3;
      for (std::size_t c = 0; c < combos; ++c) {
        std::vector<Value3> in(arity);
        Program program;
        std::size_t rest = c;
        for (unsigned i = 0; i < arity; ++i, rest /= 3) {
          in[i] = kTernary[rest % 3];
          if (is_known(in[i]))
            program.emplace_back(circuit.inputs()[i], in[i]);
        }
        ASSERT_TRUE(expect_program_matches_reference(circuit, program));

        ImplicationEngine engine(circuit);
        for (const auto& [gate, value] : program)
          ASSERT_TRUE(engine.assign(gate, value));
        EXPECT_EQ(engine.value(g), eval_gate3(type, in.data(), arity))
            << gate_type_name(type) << " arity " << arity << " combo " << c;
      }
    }
  }
}

TEST(TruthTableTest, BackwardExhaustiveTernary) {
  // Output asserted first, then the inputs: exercises the verify and
  // backward rules (and the conflict paths) over the full ternary
  // space against the reference engine.
  for (GateType type : {GateType::kAnd, GateType::kOr, GateType::kNand,
                        GateType::kNor, GateType::kNot, GateType::kBuf}) {
    const unsigned arity =
        (type == GateType::kNot || type == GateType::kBuf) ? 1u : 3u;
    const Circuit circuit = single_gate_circuit(type, arity);
    const GateId g = circuit.inputs().back() + 1;
    std::size_t combos = 1;
    for (unsigned i = 0; i < arity; ++i) combos *= 3;
    for (Value3 out : {Value3::kZero, Value3::kOne}) {
      for (std::size_t c = 0; c < combos; ++c) {
        std::vector<Value3> in(arity);
        Program program;
        program.emplace_back(g, out);
        std::size_t rest = c;
        bool all_known = true;
        for (unsigned i = 0; i < arity; ++i, rest /= 3) {
          in[i] = kTernary[rest % 3];
          all_known = all_known && is_known(in[i]);
          if (is_known(in[i])) program.emplace_back(circuit.inputs()[i], in[i]);
        }
        const bool ok = expect_program_matches_reference(circuit, program);
        // A fully specified input vector is consistent with the
        // asserted output iff the gate evaluates to it.
        if (all_known) {
          EXPECT_EQ(ok, eval_gate3(type, in.data(), arity) == out)
              << gate_type_name(type) << " out " << static_cast<int>(out)
              << " combo " << c;
        }
      }
    }
  }
}

// ------------------------------------------------ program bursts

// One burst sweep: each burst runs `programs` distinct random programs
// on ONE compiled engine, rolling back to the burst mark between them,
// with periodic epoch resets; program l also runs on its own
// persistent reference engine, rolled back in step.  Reusing one engine
// across sibling programs — the DFS's shape — must be
// indistinguishable from a private engine per program: verdicts,
// values and per-program event counts.
void run_distinct_program_bursts(unsigned programs, std::uint64_t seed,
                                 int bursts) {
  const Circuit circuit = iscas_like(seed);
  const CompiledCircuit compiled(circuit);
  ImplicationEngine engine(compiled);
  std::vector<ReferenceImplicationEngine> references;
  for (unsigned l = 0; l < programs; ++l) references.emplace_back(circuit);
  Rng rng(seed * 977);

  for (int burst = 0; burst < bursts; ++burst) {
    if (burst % 11 == 0) engine.reset();
    for (unsigned l = 0; l < programs; ++l) {
      ReferenceImplicationEngine& reference = references[l];
      const std::size_t mark = engine.mark();
      const std::size_t reference_mark = reference.mark();
      const ImplicationStats before = engine.stats();
      const ImplicationStats reference_before = reference.stats();
      for (int i = 0; i < 6; ++i) {
        const GateId gate =
            static_cast<GateId>(rng.next_below(circuit.num_gates()));
        const Value3 value =
            rng.next_bool(0.5) ? Value3::kOne : Value3::kZero;
        const bool ok = engine.assign(gate, value);
        ASSERT_EQ(ok, reference.assign(gate, value))
            << "seed " << seed << " burst " << burst << " program " << l;
        if (!ok) break;
      }
      for (GateId id = 0; id < circuit.num_gates(); ++id)
        ASSERT_EQ(engine.value(id), reference.value(id))
            << "seed " << seed << " burst " << burst << " program " << l
            << " gate " << id;
      ASSERT_EQ(engine.stats().delta_since(before),
                reference.stats().delta_since(reference_before))
          << "seed " << seed << " burst " << burst << " program " << l;
      engine.rollback(mark);
      reference.undo_to(reference_mark);
      for (GateId id = 0; id < circuit.num_gates(); ++id)
        ASSERT_EQ(engine.value(id), Value3::kUnknown)
            << "post-rollback burst " << burst;
    }
  }
}

TEST(BitparEquivalenceTest, DistinctProgramBurstsMatchScalarLanes) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed)
    run_distinct_program_bursts(64, seed, 300);
}

TEST(BitparEquivalenceTest, DistinctProgramBurstsMatchScalarLanesWide) {
  // Many more sibling programs per burst than any node's fan-out, so
  // the rollbacks outnumber the epoch resets by two orders of magnitude.
  run_distinct_program_bursts(65, 4, 60);
  run_distinct_program_bursts(130, 5, 60);
  run_distinct_program_bursts(320, 6, 40);
  run_distinct_program_bursts(512, 7, 40);
}

// ------------------------------------------------------ base overlay

TEST(BaseOverlayTest, LaneProgramsOverScalarBaseMatchFreshScalars) {
  // The DFS shape: one engine holds the tree-node state, and each
  // branch's divergent assertions run on top of it and are rolled back.
  // Every branch must behave like a fresh reference engine that made
  // the base assignments first, and the base must survive intact.
  const Circuit circuit = iscas_like(5);
  const CompiledCircuit compiled(circuit);
  Rng rng(55);
  for (int trial = 0; trial < 100; ++trial) {
    ImplicationEngine base(compiled);
    for (int i = 0; i < 4; ++i) {
      const GateId gate =
          static_cast<GateId>(rng.next_below(circuit.num_gates()));
      // Keep the base state consistent: a failed assign leaves partial
      // propagation on the trail, so undo it (as the DFS does).
      const std::size_t before_mark = base.mark();
      if (!base.assign(gate,
                       rng.next_bool(0.5) ? Value3::kOne : Value3::kZero)) {
        base.undo_to(before_mark);
        break;
      }
    }
    std::vector<Value3> base_values;
    for (GateId id = 0; id < circuit.num_gates(); ++id)
      base_values.push_back(base.value(id));

    const unsigned branches = trial % 2 == 0 ? 8 : 200;
    for (unsigned l = 0; l < branches; ++l) {
      // Rebuild the base state: asserting every value of a closed
      // implication state, in any order, converges to that state (the
      // local-implication closure is a monotone fixpoint).
      ReferenceImplicationEngine oracle(circuit);
      for (GateId id = 0; id < circuit.num_gates(); ++id) {
        if (base_values[id] != Value3::kUnknown) {
          ASSERT_TRUE(oracle.assign(id, base_values[id]));
        }
      }
      const std::size_t mark = base.mark();
      const ImplicationStats before = base.stats();
      const ImplicationStats oracle_before = oracle.stats();
      for (int round = 0; round < 5; ++round) {
        const GateId gate =
            static_cast<GateId>(rng.next_below(circuit.num_gates()));
        const Value3 value =
            rng.next_bool(0.5) ? Value3::kOne : Value3::kZero;
        const bool ok = base.assign(gate, value);
        ASSERT_EQ(ok, oracle.assign(gate, value))
            << "trial " << trial << " branch " << l << " round " << round;
        if (!ok) break;
      }
      ASSERT_EQ(base.stats().delta_since(before),
                oracle.stats().delta_since(oracle_before))
          << "trial " << trial << " branch " << l;
      for (GateId id = 0; id < circuit.num_gates(); ++id)
        ASSERT_EQ(base.value(id), oracle.value(id))
            << "trial " << trial << " branch " << l << " gate " << id;
      base.rollback(mark);
      for (GateId id = 0; id < circuit.num_gates(); ++id)
        ASSERT_EQ(base.value(id), base_values[id])
            << "trial " << trial << " branch " << l << " gate " << id;
    }
  }
}

// ------------------------------------- single-literal consequence sets

using Consequences = std::map<GateId, Value3>;

struct Drain {
  bool ok = false;
  Consequences set;  // every gate the drain left known
  ImplicationStats stats;
};

// Asserts one literal on an empty engine and records what it forced.
Drain drain_literal(const Circuit& circuit, GateId gate, Value3 value,
                    bool backward_implications = true) {
  ImplicationEngine engine(circuit, backward_implications);
  Drain drain;
  drain.ok = engine.assign(gate, value);
  for (GateId id = 0; id < circuit.num_gates(); ++id)
    if (engine.value(id) != Value3::kUnknown) drain.set[id] = engine.value(id);
  drain.stats = engine.stats();
  return drain;
}

TEST(ClosureConsequences, BufferChainPropagatesBothWays) {
  // a -> buf b -> not c -> output.  Forward from a, backward from c.
  Circuit circuit("chain");
  const GateId a = circuit.add_input("a");
  const GateId b = circuit.add_gate(GateType::kBuf, "b", {a});
  const GateId c = circuit.add_gate(GateType::kNot, "c", {b});
  const GateId po = circuit.add_output("po", c);
  circuit.finalize();

  // Asserting a=0 drains the whole chain: b=0, c=1, po=1.
  {
    const Drain drain = drain_literal(circuit, a, Value3::kZero);
    EXPECT_TRUE(drain.ok);
    const Consequences expected = {{a, Value3::kZero},
                                   {b, Value3::kZero},
                                   {c, Value3::kOne},
                                   {po, Value3::kOne}};
    EXPECT_EQ(drain.set, expected);
  }
  // Asserting c=1 reasons backward through the inverter and buffer.
  {
    const Drain drain = drain_literal(circuit, c, Value3::kOne);
    EXPECT_TRUE(drain.ok);
    EXPECT_GE(drain.set.size(), 3u);
    ASSERT_TRUE(drain.set.count(b));
    ASSERT_TRUE(drain.set.count(a));
    EXPECT_EQ(drain.set.at(b), Value3::kZero);
    EXPECT_EQ(drain.set.at(a), Value3::kZero);
  }
  // A forward-only engine must not make the backward inferences.
  {
    const Drain drain = drain_literal(circuit, c, Value3::kOne, false);
    EXPECT_EQ(drain.set.count(a), 0u);
    EXPECT_EQ(drain.set.count(b), 0u);
  }
}

TEST(ClosureConsequences, AndGateControllingAndBackward) {
  // g = AND(x, y) -> output.
  Circuit circuit("and2");
  const GateId x = circuit.add_input("x");
  const GateId y = circuit.add_input("y");
  const GateId g = circuit.add_gate(GateType::kAnd, "g", {x, y});
  const GateId po = circuit.add_output("po", g);
  circuit.finalize();

  // x=0 is controlling: forces g=0 (and the output marker).
  {
    const Drain drain = drain_literal(circuit, x, Value3::kZero);
    EXPECT_TRUE(drain.ok);
    const Consequences expected = {{x, Value3::kZero},
                                   {g, Value3::kZero},
                                   {po, Value3::kZero}};
    EXPECT_EQ(drain.set, expected);
  }
  // x=1 alone forces nothing else: y is still free.
  {
    const Drain drain = drain_literal(circuit, x, Value3::kOne);
    EXPECT_TRUE(drain.ok);
    const Consequences expected = {{x, Value3::kOne}};
    EXPECT_EQ(drain.set, expected);
  }
  // g=1 backward-implies both inputs non-controlling: x=1, y=1.
  {
    const Drain drain = drain_literal(circuit, g, Value3::kOne);
    EXPECT_TRUE(drain.ok);
    const Consequences expected = {{x, Value3::kOne},
                                   {y, Value3::kOne},
                                   {g, Value3::kOne},
                                   {po, Value3::kOne}};
    EXPECT_EQ(drain.set, expected);
  }
}

TEST(ClosureConsequences, ContradictoryLiteralRecordsConflict) {
  // g = AND(x, NOT x): g=1 is unsatisfiable from the empty state.
  Circuit circuit("const0");
  const GateId x = circuit.add_input("x");
  const GateId nx = circuit.add_gate(GateType::kNot, "nx", {x});
  const GateId g = circuit.add_gate(GateType::kAnd, "g", {x, nx});
  circuit.add_output("po", g);
  circuit.finalize();

  const Drain drain = drain_literal(circuit, g, Value3::kOne);
  EXPECT_FALSE(drain.ok);
  EXPECT_GE(drain.stats.conflicts, 1u);
  // g=0 is satisfiable (either input may be the controlling one, so
  // nothing further is forced).
  EXPECT_TRUE(drain_literal(circuit, g, Value3::kZero).ok);
}

// ------------------------------------------ large-circuit differential

TEST(ClosureEngine, DifferentialSweepMatchesScalarDrain) {
  // Random assign/mark/rollback/reset schedules on a c880-sized
  // circuit: verdicts, per-op event deltas and values must be identical
  // between the compiled engine and the reference drain.
  const Circuit circuit = make_benchmark("c880");
  const CompiledCircuit compiled(circuit);
  ImplicationEngine engine(compiled);
  ReferenceImplicationEngine reference(circuit);

  Rng rng(17);
  const std::size_t num_gates = compiled.num_gates();
  std::vector<std::size_t> marks{0};
  for (int step = 0; step < 20'000; ++step) {
    const auto choice = rng.next_below(100);
    if (choice < 70) {
      const GateId gate = static_cast<GateId>(rng.next_below(num_gates));
      const Value3 value =
          rng.next_bool(0.5) ? Value3::kOne : Value3::kZero;
      const ImplicationStats before = engine.stats();
      const ImplicationStats reference_before = reference.stats();
      const bool ok = engine.assign(gate, value);
      ASSERT_EQ(ok, reference.assign(gate, value)) << "step " << step;
      ASSERT_EQ(engine.stats().delta_since(before),
                reference.stats().delta_since(reference_before))
          << "step " << step;
      ASSERT_EQ(engine.value(gate), reference.value(gate));
      if (!ok) {
        engine.rollback(marks.back());
        reference.undo_to(marks.back());
      }
    } else if (choice < 80) {
      ASSERT_EQ(engine.mark(), reference.mark());
      marks.push_back(engine.mark());
    } else if (choice < 95) {
      engine.rollback(marks.back());
      reference.undo_to(marks.back());
      if (marks.size() > 1) marks.pop_back();
    } else {
      engine.reset();
      reference.undo_to(0);
      marks.assign(1, 0);
    }
    ASSERT_EQ(engine.num_assigned(), reference.num_assigned());
  }
  // Full state equality at the end of the sweep.
  for (GateId gate = 0; gate < static_cast<GateId>(num_gates); ++gate)
    ASSERT_EQ(engine.value(gate), reference.value(gate));
}

// --------------------------------------- classification bit-identity

bool deterministic_fields_equal(const ClassifyResult& a,
                                const ClassifyResult& b) {
  return a.kept_paths == b.kept_paths && a.work == b.work &&
         a.completed == b.completed &&
         a.abort_reason == b.abort_reason && a.kept_keys == b.kept_keys &&
         a.kept_controlling_per_lead == b.kept_controlling_per_lead &&
         a.implication == b.implication;
}

TEST(ClassifyBitIdentityTest, CompiledMatchesReferenceAcrossThreads) {
  std::vector<Circuit> corpus;
  for (std::uint64_t seed = 1; seed <= 4; ++seed)
    corpus.push_back(iscas_like(seed));
  corpus.push_back(mcnc_like());
  corpus.push_back(c17());

  for (const Circuit& circuit : corpus) {
    const InputSort sort = heuristic1_sort(circuit);
    for (Criterion criterion :
         {Criterion::kFunctionalSensitizable, Criterion::kNonRobust,
          Criterion::kInputSort}) {
      ClassifyOptions options;
      options.criterion = criterion;
      if (criterion == Criterion::kInputSort) options.sort = &sort;
      options.collect_lead_counts = true;
      options.collect_paths_limit = 64;

      const ClassifyResult reference =
          classify_paths_reference(circuit, options);
      const ClassifyResult serial = classify_paths_serial(circuit, options);
      ASSERT_TRUE(deterministic_fields_equal(reference, serial))
          << circuit.name() << " criterion " << static_cast<int>(criterion);
      for (std::size_t threads : {1u, 2u, 4u}) {
        options.num_threads = threads;
        const ClassifyResult parallel =
            classify_paths_parallel(circuit, options);
        ASSERT_TRUE(deterministic_fields_equal(reference, parallel))
            << circuit.name() << " criterion "
            << static_cast<int>(criterion) << " threads " << threads;
      }
    }
  }
}

TEST(ClassifyBitIdentityTest, WorkLimitAbortsIdentically) {
  // The work_limit verdict is part of the deterministic contract; the
  // compiled engine must stop after the same extension step.
  const Circuit circuit = iscas_like(2);
  ClassifyOptions options;
  options.work_limit = 37;
  const ClassifyResult reference =
      classify_paths_reference(circuit, options);
  const ClassifyResult serial = classify_paths_serial(circuit, options);
  EXPECT_FALSE(serial.completed);
  EXPECT_EQ(serial.abort_reason, AbortReason::kWorkBudget);
  ASSERT_TRUE(deterministic_fields_equal(reference, serial));
}

TEST(LaneDegeneracyTest, LanedClassifyMatchesScalarOnStarvedTrees) {
  // Circuits whose prefix trees starve the parallel frontier: a
  // single-fanout chain (one seed, nothing to split), the tiny classics
  // (far fewer seeds than workers at 8 threads), and a small generated
  // circuit.  Serial and parallel runs must still match the reference.
  std::vector<Circuit> corpus;
  {
    Circuit chain("chain");
    GateId prev = chain.add_input("a");
    for (int i = 0; i < 6; ++i)
      prev = chain.add_gate(i % 2 ? GateType::kNot : GateType::kBuf,
                            "b" + std::to_string(i), {prev});
    chain.add_output("o", prev);
    chain.finalize();
    corpus.push_back(std::move(chain));
  }
  corpus.push_back(c17());
  corpus.push_back(paper_example_circuit());
  corpus.push_back(iscas_like(7));

  for (const Circuit& circuit : corpus) {
    ClassifyOptions options;
    options.collect_lead_counts = true;
    options.collect_paths_limit = 64;
    const ClassifyResult reference =
        classify_paths_reference(circuit, options);
    ASSERT_TRUE(deterministic_fields_equal(
        reference, classify_paths_serial(circuit, options)))
        << circuit.name();
    for (std::size_t threads : {2u, 3u, 8u}) {
      options.num_threads = threads;
      const ClassifyResult parallel =
          classify_paths_parallel(circuit, options);
      ASSERT_TRUE(deterministic_fields_equal(reference, parallel))
          << circuit.name() << " threads " << threads;
    }
  }
}

// ------------------------------------------------- guard striding

TEST(GuardStridingTest, UntrippedGuardChargesExactWorkTotal) {
  // Strided polling batches the charges but must not lose any: on a
  // completed run the guard's work counter equals the classic per-step
  // accounting, and the results are bit-identical to a guard-free run.
  const Circuit circuit = iscas_like(1);
  ClassifyOptions options;
  const ClassifyResult bare = classify_paths_serial(circuit, options);
  ExecGuard guard;
  options.guard = &guard;
  const ClassifyResult guarded = classify_paths_serial(circuit, options);
  ASSERT_TRUE(deterministic_fields_equal(bare, guarded));
  EXPECT_TRUE(guarded.completed);
  EXPECT_EQ(guard.work_used(), guarded.work);
  EXPECT_FALSE(guard.tripped());
}

TEST(GuardStridingTest, GuardWorkCeilingTripsWithFirstTripReason) {
  const Circuit circuit = iscas_like(1);
  ExecGuardOptions guard_options;
  guard_options.work_limit = 50;
  ExecGuard guard(guard_options);
  ClassifyOptions options;
  options.guard = &guard;
  const ClassifyResult result = classify_paths_serial(circuit, options);
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.abort_reason, AbortReason::kWorkBudget);
  EXPECT_EQ(guard.reason(), AbortReason::kWorkBudget);
  // Strided publication can overshoot the ceiling by at most one
  // stride's worth of steps minus one; it must never lose charges.
  EXPECT_GE(guard.work_used(), guard_options.work_limit);
  EXPECT_EQ(guard.work_used(), result.work);
}

TEST(GuardStridingTest, InjectedTripIsDeterministicAcrossReruns) {
  // Deterministic fault injection fires inside the Nth guard poll; the
  // serial engine's partial counts at that abort point must be
  // reproducible run over run (the poll schedule is a pure function of
  // the step stream), and the first-trip reason must surface verbatim.
  const Circuit circuit = iscas_like(4);
  ClassifyResult first;
  for (int attempt = 0; attempt < 3; ++attempt) {
    ExecGuard guard;
    guard.inject_trip_at(3, AbortReason::kDeadline);
    ClassifyOptions options;
    options.guard = &guard;
    const ClassifyResult result = classify_paths_serial(circuit, options);
    EXPECT_FALSE(result.completed);
    EXPECT_EQ(result.abort_reason, AbortReason::kDeadline);
    EXPECT_EQ(guard.reason(), AbortReason::kDeadline);
    if (attempt == 0) {
      first = result;
      continue;
    }
    ASSERT_TRUE(deterministic_fields_equal(first, result))
        << "attempt " << attempt;
  }
  // A later trip must abort strictly later in the step stream.
  ExecGuard late_guard;
  late_guard.inject_trip_at(5, AbortReason::kDeadline);
  ClassifyOptions options;
  options.guard = &late_guard;
  const ClassifyResult late = classify_paths_serial(circuit, options);
  EXPECT_FALSE(late.completed);
  EXPECT_GT(late.work, first.work);
}

}  // namespace
}  // namespace rd
