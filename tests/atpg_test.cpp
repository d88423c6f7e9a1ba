// Tests for the ATPG layer: waveform algebra, robust path-delay
// testability (cross-checked against the paper example's published
// counts and against the NR criterion hierarchy), and PODEM stuck-at
// test generation with redundancy proofs (cross-checked against
// exhaustive enumeration on small circuits).
#include <gtest/gtest.h>

#include "atpg/robust.h"
#include "atpg/stuck_at.h"
#include "atpg/waveform.h"
#include "core/exact.h"
#include "gen/examples.h"
#include "gen/iscas_like.h"
#include "paths/counting.h"
#include "sim/logic_sim.h"
#include "util/rng.h"

namespace rd {
namespace {

TEST(Waveform, SteadyControllingPins) {
  // AND with one steady-0 input is steady 0 whatever else happens.
  const Wave inputs[] = {Wave::steady(false), Wave::rising()};
  const Wave out = eval_gate_wave(GateType::kAnd, inputs, 2);
  EXPECT_TRUE(out.is_steady());
  EXPECT_EQ(out.final, Value3::kZero);
}

TEST(Waveform, CleanTransitionPropagates) {
  {
    const Wave inputs[] = {Wave::rising(), Wave::steady(true)};
    const Wave out = eval_gate_wave(GateType::kAnd, inputs, 2);
    EXPECT_TRUE(out.clean);
    EXPECT_TRUE(out.has_transition());
    EXPECT_EQ(out.final, Value3::kOne);
  }
  {
    const Wave inputs[] = {Wave::falling()};
    const Wave out = eval_gate_wave(GateType::kNot, inputs, 1);
    EXPECT_TRUE(out.clean);
    EXPECT_EQ(out.initial, Value3::kZero);
    EXPECT_EQ(out.final, Value3::kOne);
  }
}

TEST(Waveform, OpposingTransitionsAreDirty) {
  const Wave inputs[] = {Wave::rising(), Wave::falling()};
  const Wave out = eval_gate_wave(GateType::kAnd, inputs, 2);
  EXPECT_FALSE(out.clean);  // possible 1-glitch
  EXPECT_EQ(out.final, Value3::kZero);
}

TEST(Waveform, SameDirectionTransitionsStayClean) {
  const Wave inputs[] = {Wave::rising(), Wave::rising()};
  const Wave out = eval_gate_wave(GateType::kOr, inputs, 2);
  EXPECT_TRUE(out.clean);
  EXPECT_TRUE(out.has_transition());
}

TEST(Waveform, UnknownsAreDirty) {
  const Wave inputs[] = {Wave::unknown(), Wave::steady(true)};
  const Wave out = eval_gate_wave(GateType::kAnd, inputs, 2);
  EXPECT_FALSE(out.is_steady());
}

TEST(Waveform, NandNorInversion) {
  const Wave inputs[] = {Wave::rising(), Wave::steady(true)};
  const Wave nand_out = eval_gate_wave(GateType::kNand, inputs, 2);
  EXPECT_TRUE(nand_out.clean);
  EXPECT_EQ(nand_out.initial, Value3::kOne);
  EXPECT_EQ(nand_out.final, Value3::kZero);
}

// --- Robust path delay testability ----------------------------------------

std::vector<LogicalPath> all_logical_paths(const Circuit& circuit) {
  std::vector<LogicalPath> paths;
  enumerate_paths(
      circuit,
      [&](const PhysicalPath& physical) {
        paths.push_back(LogicalPath{physical, false});
        paths.push_back(LogicalPath{physical, true});
      },
      1u << 20);
  return paths;
}

TEST(Robust, PaperExampleHasExactlyFiveRobustPaths) {
  const Circuit circuit = paper_example_circuit();
  const auto paths = all_logical_paths(circuit);
  ASSERT_EQ(paths.size(), 8u);
  std::size_t robust = 0;
  for (const auto& path : paths)
    if (search_robust_test(circuit, path).verdict == AtpgVerdict::kTestable)
      ++robust;
  EXPECT_EQ(robust, 5u);  // Example 3: coverage 5/6 for σ, 5/5 for σ'
}

TEST(Robust, FoundTestsValidateIndependently) {
  const Circuit circuit = paper_example_circuit();
  for (const auto& path : all_logical_paths(circuit)) {
    const auto test = search_robust_test(circuit, path).test;
    if (test.has_value()) {
      EXPECT_TRUE(robust_test_is_valid(circuit, path, *test))
          << path_to_string(circuit, path);
    }
  }
}

TEST(Robust, RobustImpliesNonRobustTestable) {
  // Hierarchy: robustly testable ⊆ T(C) (non-robustly testable).
  std::vector<Circuit> circuits;
  circuits.push_back(paper_example_circuit());
  circuits.push_back(c17());
  for (std::uint64_t seed = 11; seed <= 13; ++seed) {
    IscasProfile profile;
    profile.name = "t";
    profile.num_inputs = 6;
    profile.num_outputs = 2;
    profile.num_gates = 18;
    profile.num_levels = 4;
    profile.xor_fraction = 0.2;
    profile.seed = seed;
    circuits.push_back(make_iscas_like(profile));
  }
  for (const Circuit& circuit : circuits) {
    for (const auto& path : all_logical_paths(circuit)) {
      if (search_robust_test(circuit, path).verdict ==
          AtpgVerdict::kTestable) {
        EXPECT_TRUE(
            exactly_sensitizable(circuit, path, Criterion::kNonRobust))
            << circuit.name() << ": " << path_to_string(circuit, path);
      }
    }
  }
}

TEST(Robust, C17IsFullyRobustlyTestable) {
  // A classic result: every path delay fault in c17 is robustly
  // testable.
  const Circuit circuit = c17();
  for (const auto& path : all_logical_paths(circuit))
    EXPECT_EQ(search_robust_test(circuit, path).verdict, AtpgVerdict::kTestable)
        << path_to_string(circuit, path);
}

TEST(Robust, RejectsMalformedPath) {
  const Circuit circuit = paper_example_circuit();
  LogicalPath bogus;
  EXPECT_THROW(search_robust_test(circuit, bogus), std::invalid_argument);
}

// --- Stuck-at PODEM --------------------------------------------------------

/// Exhaustive testability oracle.
bool exhaustively_testable(const Circuit& circuit, const StuckFault& fault) {
  const std::size_t n = circuit.inputs().size();
  for (std::uint64_t minterm = 0; minterm < (std::uint64_t{1} << n);
       ++minterm) {
    std::vector<Value3> values(n);
    for (std::size_t i = 0; i < n; ++i)
      values[i] = to_value3(((minterm >> i) & 1) != 0);
    if (detects_fault(circuit, fault, values)) return true;
  }
  return false;
}

TEST(Podem, AgreesWithExhaustiveOracle) {
  std::vector<Circuit> circuits;
  circuits.push_back(paper_example_circuit());
  circuits.push_back(c17());
  for (std::uint64_t seed = 21; seed <= 24; ++seed) {
    IscasProfile profile;
    profile.name = "t";
    profile.num_inputs = 6;
    profile.num_outputs = 3;
    profile.num_gates = 20;
    profile.num_levels = 4;
    profile.xor_fraction = seed % 2 ? 0.25 : 0.0;
    profile.seed = seed;
    circuits.push_back(make_iscas_like(profile));
  }
  for (const Circuit& circuit : circuits) {
    for (LeadId lead = 0; lead < circuit.num_leads(); ++lead) {
      for (const bool value : {false, true}) {
        const StuckFault fault = StuckFault::on_lead(lead, value);
        const AtpgResult result = podem(circuit, fault);
        ASSERT_NE(result.verdict, AtpgVerdict::kAborted);
        const bool testable = exhaustively_testable(circuit, fault);
        ASSERT_EQ(result.verdict == AtpgVerdict::kTestable, testable)
            << circuit.name() << " lead " << lead << " sa" << value;
        if (result.verdict == AtpgVerdict::kTestable) {
          EXPECT_TRUE(detects_fault(circuit, fault, result.test))
              << "returned test does not detect the fault";
        }
      }
    }
  }
}

TEST(Podem, DetectsGateOutputFaults) {
  const Circuit circuit = c17();
  for (GateId id = 0; id < circuit.num_gates(); ++id) {
    if (circuit.gate(id).type == GateType::kOutput) continue;
    for (const bool value : {false, true}) {
      const StuckFault fault = StuckFault::on_output(id, value);
      const AtpgResult result = podem(circuit, fault);
      ASSERT_NE(result.verdict, AtpgVerdict::kAborted);
      EXPECT_EQ(result.verdict == AtpgVerdict::kTestable,
                exhaustively_testable(circuit, fault));
    }
  }
}

TEST(Podem, ProvesClassicRedundancy) {
  // y = (a + b)(a + c) built as written contains the textbook
  // redundancy: with the common literal a duplicated, the fault
  // "b-lead s-a-1" (or c) is... actually both cofactor faults remain
  // testable here; use instead the constant-consensus circuit
  // y = ab + āc + bc where the consensus term bc is redundant:
  // every stuck-at on the bc AND gate's output lead is undetectable.
  Circuit circuit;
  const GateId a = circuit.add_input("a");
  const GateId b = circuit.add_input("b");
  const GateId c = circuit.add_input("c");
  const GateId na = circuit.add_gate(GateType::kNot, "na", {a});
  const GateId t1 = circuit.add_gate(GateType::kAnd, "t1", {a, b});
  const GateId t2 = circuit.add_gate(GateType::kAnd, "t2", {na, c});
  const GateId t3 = circuit.add_gate(GateType::kAnd, "t3", {b, c});
  const GateId org = circuit.add_gate(GateType::kOr, "or", {t1, t2, t3});
  circuit.add_output("y", org);
  circuit.finalize();

  // The lead t3 -> or stuck at 0 is redundant (consensus theorem).
  const LeadId consensus_lead = circuit.gate(org).fanin_leads[2];
  const AtpgResult result =
      podem(circuit, StuckFault::on_lead(consensus_lead, false));
  EXPECT_EQ(result.verdict, AtpgVerdict::kRedundant);
  // Its s-a-1 counterpart is testable (set b=1, c=0? then t3=0 good,
  // faulted 1 -> y differs when t1 = t2 = 0).
  const AtpgResult sa1 =
      podem(circuit, StuckFault::on_lead(consensus_lead, true));
  EXPECT_EQ(sa1.verdict, AtpgVerdict::kTestable);
}

TEST(Podem, AbortsOnTinyBudget) {
  const Circuit circuit = make_benchmark("c432");
  const AtpgResult result =
      podem(circuit, StuckFault::on_lead(0, false), /*max_nodes=*/1);
  EXPECT_EQ(result.verdict, AtpgVerdict::kAborted);
}

TEST(FaultSim, RandomPatternsDetectEasyFaults) {
  const Circuit circuit = c17();
  // Every c17 fault is testable and should be caught by 256 random
  // patterns with overwhelming probability.
  std::size_t caught = 0;
  std::size_t total = 0;
  for (LeadId lead = 0; lead < circuit.num_leads(); ++lead) {
    for (const bool value : {false, true}) {
      ++total;
      if (random_patterns_detect(circuit, StuckFault::on_lead(lead, value),
                                 /*seed=*/lead * 2 + value, /*num_words=*/4))
        ++caught;
    }
  }
  EXPECT_EQ(caught, total);
}

TEST(FaultSim, NeverDetectsRedundantFault) {
  // Soundness of the prefilter: a redundant fault must never be
  // "detected" by any pattern.
  Circuit circuit;
  const GateId a = circuit.add_input("a");
  const GateId b = circuit.add_input("b");
  const GateId c = circuit.add_input("c");
  const GateId na = circuit.add_gate(GateType::kNot, "na", {a});
  const GateId t1 = circuit.add_gate(GateType::kAnd, "t1", {a, b});
  const GateId t2 = circuit.add_gate(GateType::kAnd, "t2", {na, c});
  const GateId t3 = circuit.add_gate(GateType::kAnd, "t3", {b, c});
  const GateId org = circuit.add_gate(GateType::kOr, "or", {t1, t2, t3});
  circuit.add_output("y", org);
  circuit.finalize();
  const LeadId consensus_lead = circuit.gate(org).fanin_leads[2];
  EXPECT_FALSE(random_patterns_detect(
      circuit, StuckFault::on_lead(consensus_lead, false), 7, 16));
}

}  // namespace
}  // namespace rd
