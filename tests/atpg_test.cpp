// Tests for the ATPG layer: waveform algebra, robust path-delay
// testability (cross-checked against the paper example's published
// counts and against the NR criterion hierarchy).
#include <gtest/gtest.h>

#include "atpg/robust.h"
#include "atpg/waveform.h"
#include "core/exact.h"
#include "gen/examples.h"
#include "gen/iscas_like.h"
#include "paths/counting.h"

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

}  // namespace
}  // namespace rd
