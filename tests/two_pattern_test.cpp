// Dynamic validation of test semantics with the two-pattern tester
// model: a generated robust test must detect an injected delay fault
// on its target path for *every* delay assignment of the rest of the
// circuit — that is the definition of robustness (Section II), checked
// here by actual timed simulation instead of structural conditions.
#include <gtest/gtest.h>

#include <algorithm>

#include "atpg/robust.h"
#include "gen/examples.h"
#include "gen/iscas_like.h"
#include "paths/counting.h"
#include "sim/logic_sim.h"
#include "sim/two_pattern.h"
#include "util/rng.h"

namespace rd {
namespace {

void waves_to_vectors(const RobustTest& test, std::vector<bool>& v1,
                      std::vector<bool>& v2) {
  v1.resize(test.size());
  v2.resize(test.size());
  for (std::size_t i = 0; i < test.size(); ++i) {
    v1[i] = to_bool(test[i].initial);
    v2[i] = to_bool(test[i].final);
  }
}

DelayModel random_small_delays(const Circuit& circuit, Rng& rng) {
  DelayModel delays = DelayModel::zero(circuit);
  for (GateId id = 0; id < circuit.num_gates(); ++id)
    if (circuit.gate(id).type != GateType::kInput)
      delays.gate_delay[id] = 0.1 + 0.4 * rng.next_double();
  for (LeadId lead = 0; lead < circuit.num_leads(); ++lead)
    delays.lead_delay[lead] = 0.05 * rng.next_double();
  return delays;
}

TEST(TwoPattern, SlowClockSamplesSettledValues) {
  const Circuit circuit = c17();
  Rng rng(1);
  const DelayModel delays = random_small_delays(circuit, rng);
  const std::vector<bool> v1{false, true, false, true, false};
  const std::vector<bool> v2{true, true, false, false, true};
  const auto result = apply_two_pattern(circuit, delays, v1, v2, 1e6);
  EXPECT_FALSE(result.late);
  const auto expected = simulate(circuit, v2);
  for (std::size_t i = 0; i < circuit.outputs().size(); ++i) {
    EXPECT_EQ(result.sampled[i], expected[circuit.outputs()[i]]);
    EXPECT_EQ(result.settled[i], expected[circuit.outputs()[i]]);
  }
}

TEST(TwoPattern, ZeroClockSamplesInitialValues) {
  const Circuit circuit = c17();
  Rng rng(2);
  const DelayModel delays = random_small_delays(circuit, rng);
  const std::vector<bool> v1{true, false, true, false, true};
  const std::vector<bool> v2{false, true, false, true, false};
  const auto result = apply_two_pattern(circuit, delays, v1, v2, 0.0);
  const auto initial = simulate(circuit, v1);
  for (std::size_t i = 0; i < circuit.outputs().size(); ++i)
    EXPECT_EQ(result.sampled[i], initial[circuit.outputs()[i]]);
}

TEST(TwoPattern, InjectedDelayDistributesOverLeads) {
  const Circuit circuit = paper_example_circuit();
  const DelayModel base = DelayModel::zero(circuit);
  PhysicalPath path;
  enumerate_paths(
      circuit, [&](const PhysicalPath& p) { if (path.leads.empty()) path = p; },
      16);
  const DelayModel faulty = inject_path_delay(circuit, base, path, 6.0);
  double injected = 0;
  for (LeadId lead = 0; lead < circuit.num_leads(); ++lead)
    injected += faulty.lead_delay[lead] - base.lead_delay[lead];
  EXPECT_NEAR(injected, 6.0, 1e-9);
}

/// The core dynamic property: for every robustly testable path of the
/// circuit, the generated test detects an injected fault on that path
/// under `trials` random background delay assignments.
void check_robust_detection(const Circuit& circuit, std::uint64_t seed,
                            int trials) {
  std::vector<LogicalPath> paths;
  enumerate_paths(
      circuit,
      [&](const PhysicalPath& physical) {
        paths.push_back(LogicalPath{physical, false});
        paths.push_back(LogicalPath{physical, true});
      },
      1u << 12);
  Rng rng(seed);
  for (const LogicalPath& path : paths) {
    const auto test = search_robust_test(circuit, path).test;
    if (!test.has_value()) continue;
    std::vector<bool> v1, v2;
    waves_to_vectors(*test, v1, v2);
    const auto good = simulate(circuit, v2);

    for (int trial = 0; trial < trials; ++trial) {
      const DelayModel background = random_small_delays(circuit, rng);
      // Clock: everything fault-free settles well within tau...
      const double tau =
          static_cast<double>(circuit.max_level() + 1) * 0.6;
      // ...but the faulty path alone exceeds it by far.
      const DelayModel faulty =
          inject_path_delay(circuit, background, path.path, 4.0 * tau);

      // Sanity: fault-free operation passes.
      const auto clean =
          apply_two_pattern(circuit, background, v1, v2, tau);
      bool clean_pass = true;
      for (std::size_t i = 0; i < circuit.outputs().size(); ++i)
        clean_pass =
            clean_pass && clean.sampled[i] == good[circuit.outputs()[i]];
      ASSERT_TRUE(clean_pass) << "fault-free circuit failed its own test";

      // Faulty operation must be flagged: some PO samples wrong.
      const auto observed = apply_two_pattern(circuit, faulty, v1, v2, tau);
      bool detected = false;
      for (std::size_t i = 0; i < circuit.outputs().size(); ++i)
        detected = detected || observed.sampled[i] != good[circuit.outputs()[i]];
      EXPECT_TRUE(detected)
          << circuit.name() << ": robust test missed the fault on "
          << path_to_string(circuit, path) << " (trial " << trial << ")";
    }
  }
}

TEST(RobustDynamics, PaperExample) {
  check_robust_detection(paper_example_circuit(), 11, 8);
}

TEST(RobustDynamics, C17) { check_robust_detection(c17(), 12, 4); }

TEST(RobustDynamics, RandomCircuits) {
  for (std::uint64_t seed = 81; seed <= 82; ++seed) {
    IscasProfile profile;
    profile.name = "tp" + std::to_string(seed);
    profile.num_inputs = 5;
    profile.num_outputs = 2;
    profile.num_gates = 14;
    profile.num_levels = 4;
    profile.seed = seed;
    check_robust_detection(make_iscas_like(profile), seed, 3);
  }
}

}  // namespace
}  // namespace rd
