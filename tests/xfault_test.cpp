// Tests for the kill-set engine behind the leaf-dag baseline: the SAT
// X-observability query (cross-checked against exhaustive ternary
// simulation, unfocused and focused) and the per-polarity alive-path
// accounting.
#include <gtest/gtest.h>

#include "gen/examples.h"
#include "gen/iscas_like.h"
#include "gen/pla_like.h"
#include "paths/counting.h"
#include "sim/logic_sim.h"
#include "synth/synth.h"
#include "unfold/xfault.h"
#include "util/rng.h"

namespace rd {
namespace {

/// Exhaustive oracle: a kill set is testable iff some vector leaves
/// some PO ternary-undetermined when each killed lead (for its
/// fault-free value) carries X.
bool exhaustive_testable(const Circuit& circuit, const KillSet& kills) {
  const std::size_t n = circuit.inputs().size();
  EXPECT_LE(n, 16u);
  for (std::uint64_t minterm = 0; minterm < (std::uint64_t{1} << n);
       ++minterm) {
    std::vector<bool> inputs(n);
    for (std::size_t i = 0; i < n; ++i) inputs[i] = (minterm >> i) & 1;
    const auto good = simulate(circuit, inputs);
    // Ternary evaluation with X injected on activated killed leads.
    std::vector<Value3> values(circuit.num_gates(), Value3::kUnknown);
    for (std::size_t i = 0; i < n; ++i)
      values[circuit.inputs()[i]] = to_value3(inputs[i]);
    std::vector<Value3> scratch;
    for (GateId id : circuit.topo_order()) {
      const Gate& gate = circuit.gate(id);
      if (gate.type == GateType::kInput) continue;
      scratch.clear();
      for (std::uint32_t pin = 0; pin < gate.fanins.size(); ++pin) {
        const GateId driver = gate.fanins[pin];
        Value3 value = values[driver];
        if (kills.killed(gate.fanin_leads[pin], good[driver]))
          value = Value3::kUnknown;
        scratch.push_back(value);
      }
      values[id] = eval_gate3(gate.type, scratch.data(), scratch.size());
    }
    for (GateId po : circuit.outputs())
      if (!is_known(values[po])) return true;
  }
  return false;
}

/// c17, the paper example and the synthesized bw cover (5 PIs, so the
/// oracle sweeps 32 vectors).
std::vector<Circuit> oracle_circuits() {
  std::vector<Circuit> circuits;
  circuits.push_back(c17());
  circuits.push_back(paper_example_circuit());
  for (const PlaProfile& profile : mcnc_profiles())
    if (profile.name == "bw")
      circuits.push_back(synthesize_multilevel(make_pla_like(profile)));
  EXPECT_EQ(circuits.size(), 3u);
  return circuits;
}

TEST(KillSet, MaskOperations) {
  KillSet kills(4);
  EXPECT_FALSE(kills.any());
  kills.kill(2, true);
  EXPECT_TRUE(kills.killed(2, true));
  EXPECT_FALSE(kills.killed(2, false));
  kills.kill(2, false);
  EXPECT_TRUE(kills.killed(2, false));
  kills.revive(2, true);
  EXPECT_FALSE(kills.killed(2, true));
  EXPECT_TRUE(kills.killed(2, false));
  EXPECT_TRUE(kills.any());
}

TEST(KillSearch, EmptyKillSetIsRedundant) {
  const Circuit circuit = c17();
  const KillSet kills(circuit.num_leads());
  EXPECT_EQ(kill_set_testable(circuit, kills), KillVerdict::kRedundant);
}

TEST(KillSearch, AgreesWithExhaustiveOracle_SingleKills) {
  std::vector<Circuit> circuits;
  circuits.push_back(paper_example_circuit());
  circuits.push_back(c17());
  for (std::uint64_t seed = 41; seed <= 44; ++seed) {
    IscasProfile profile;
    profile.name = "t";
    profile.num_inputs = 6;
    profile.num_outputs = 2;
    profile.num_gates = 20;
    profile.num_levels = 4;
    profile.xor_fraction = seed % 2 ? 0.2 : 0.0;
    profile.seed = seed;
    circuits.push_back(make_iscas_like(profile));
  }
  for (const Circuit& circuit : circuits) {
    for (LeadId lead = 0; lead < circuit.num_leads(); ++lead) {
      for (const bool value : {false, true}) {
        KillSet kills(circuit.num_leads());
        kills.kill(lead, value);
        const KillVerdict verdict = kill_set_testable(circuit, kills);
        ASSERT_NE(verdict, KillVerdict::kAborted);
        ASSERT_EQ(verdict == KillVerdict::kTestable,
                  exhaustive_testable(circuit, kills))
            << circuit.name() << " lead " << lead << " value " << value;
      }
    }
  }
}

TEST(KillSearch, AgreesWithExhaustiveOracle_RandomSets) {
  Rng rng(4242);
  for (std::uint64_t seed = 51; seed <= 54; ++seed) {
    IscasProfile profile;
    profile.name = "t";
    profile.num_inputs = 5;
    profile.num_outputs = 2;
    profile.num_gates = 16;
    profile.num_levels = 4;
    profile.seed = seed;
    const Circuit circuit = make_iscas_like(profile);
    for (int trial = 0; trial < 40; ++trial) {
      KillSet kills(circuit.num_leads());
      const std::size_t count = 1 + rng.next_below(4);
      for (std::size_t i = 0; i < count; ++i)
        kills.kill(static_cast<LeadId>(rng.next_below(circuit.num_leads())),
                   rng.next_bool(0.5));
      const KillVerdict verdict = kill_set_testable(circuit, kills);
      ASSERT_NE(verdict, KillVerdict::kAborted);
      ASSERT_EQ(verdict == KillVerdict::kTestable,
                exhaustive_testable(circuit, kills))
          << circuit.name() << " trial " << trial;
    }
  }
}

TEST(KillSearch, PaperExampleKnownVerdicts) {
  const Circuit circuit = paper_example_circuit();
  // Locate leads by (driver name, sink name).
  auto lead_of = [&](const std::string& driver, const std::string& sink) {
    for (LeadId lead = 0; lead < circuit.num_leads(); ++lead) {
      if (circuit.gate(circuit.lead(lead).driver).name == driver &&
          circuit.gate(circuit.lead(lead).sink).name == sink)
        return lead;
    }
    ADD_FAILURE() << "no lead " << driver << "->" << sink;
    return kNullLead;
  };
  // Killing the rising paths through g1->h is sound (bc + c = c);
  // killing the falling ones is not (OR settling to 0 needs g1).
  {
    KillSet kills(circuit.num_leads());
    kills.kill(lead_of("g1", "h"), true);
    EXPECT_EQ(kill_set_testable(circuit, kills), KillVerdict::kRedundant);
  }
  {
    KillSet kills(circuit.num_leads());
    kills.kill(lead_of("g1", "h"), false);
    EXPECT_EQ(kill_set_testable(circuit, kills), KillVerdict::kTestable);
  }
  // Both polarities of b->g1 together are sound (the optimum σ' never
  // uses the b lead).
  {
    KillSet kills(circuit.num_leads());
    kills.kill(lead_of("b", "g1"), false);
    kills.kill(lead_of("b", "g1"), true);
    EXPECT_EQ(kill_set_testable(circuit, kills), KillVerdict::kRedundant);
  }
  // The a->y lead is load-bearing in both polarities.
  for (const bool value : {false, true}) {
    KillSet kills(circuit.num_leads());
    kills.kill(lead_of("a", "y"), value);
    EXPECT_EQ(kill_set_testable(circuit, kills), KillVerdict::kTestable);
  }
}

TEST(KillSearch, AbortsOnTinyBudget) {
  const Circuit circuit = make_benchmark("c432");
  KillSet kills(circuit.num_leads());
  kills.kill(0, false);
  // One unit of work: the query's own poll passes, its first conflict
  // trips the guard.
  ExecGuardOptions budget;
  budget.work_limit = 1;
  ExecGuard guard(budget);
  EXPECT_EQ(kill_set_testable(circuit, kills, kNullLead, false, &guard),
            KillVerdict::kAborted);
}

TEST(KillSearch, SatVerdictMatchesTernaryOracle) {
  Rng rng(2718);
  std::size_t testable = 0;
  std::size_t redundant = 0;
  for (const Circuit& circuit : oracle_circuits()) {
    const auto expect_oracle = [&](const KillSet& kills) {
      const KillVerdict verdict = kill_set_testable(circuit, kills);
      ASSERT_NE(verdict, KillVerdict::kAborted);
      const bool oracle = exhaustive_testable(circuit, kills);
      ASSERT_EQ(verdict == KillVerdict::kTestable, oracle) << circuit.name();
      ++(oracle ? testable : redundant);
    };
    for (LeadId lead = 0; lead < circuit.num_leads(); ++lead) {
      for (const bool value : {false, true}) {
        KillSet kills(circuit.num_leads());
        kills.kill(lead, value);
        expect_oracle(kills);
      }
    }
    for (int trial = 0; trial < 40; ++trial) {
      KillSet kills(circuit.num_leads());
      const std::size_t count = 2 + rng.next_below(4);
      for (std::size_t i = 0; i < count; ++i)
        kills.kill(static_cast<LeadId>(rng.next_below(circuit.num_leads())),
                   rng.next_bool(0.5));
      expect_oracle(kills);
    }
  }
  EXPECT_GT(testable, 0u);
  EXPECT_GT(redundant, 0u);
}

TEST(KillSearch, FocusedVerdictMatchesUnfocused) {
  Rng rng(31);
  std::size_t testable = 0;
  std::size_t redundant = 0;
  for (const Circuit& circuit : oracle_circuits()) {
    // A redundant kill set of up to six pairs (none on the irredundant
    // c17), grown in a shuffled order and proven by the oracle, so that
    // some further kills are still sound on top of it.
    std::vector<std::pair<LeadId, bool>> pairs;
    for (LeadId lead = 0; lead < circuit.num_leads(); ++lead)
      for (const bool value : {false, true}) pairs.emplace_back(lead, value);
    for (std::size_t i = pairs.size(); i > 1; --i)
      std::swap(pairs[i - 1], pairs[rng.next_below(i)]);
    KillSet proven(circuit.num_leads());
    std::size_t size = 0;
    for (const auto& [lead, value] : pairs) {
      if (size == 6) break;
      proven.kill(lead, value);
      if (exhaustive_testable(circuit, proven)) {
        proven.revive(lead, value);
      } else {
        ++size;
      }
    }
    for (const auto& [lead, value] : pairs) {
      if (proven.killed(lead, value)) continue;
      KillSet kills = proven;
      kills.kill(lead, value);
      const KillVerdict focused = kill_set_testable(circuit, kills, lead, value);
      ASSERT_NE(focused, KillVerdict::kAborted);
      ASSERT_EQ(focused, kill_set_testable(circuit, kills))
          << circuit.name() << " lead " << lead << " value " << value;
      ++(focused == KillVerdict::kTestable ? testable : redundant);
    }
  }
  EXPECT_GT(testable, 0u);
  EXPECT_GT(redundant, 0u);
}

TEST(AliveCounts, NoKillsMatchesPlainCounting) {
  for (const char* name : {"c432", "c880"}) {
    const Circuit circuit = make_benchmark(name);
    const KillSet kills(circuit.num_leads());
    const AlivePathCounts alive = count_alive_paths(circuit, kills);
    const PathCounts counts(circuit);
    EXPECT_EQ(alive.total_alive_logical, counts.total_logical()) << name;
    for (LeadId lead = 0; lead < circuit.num_leads(); lead += 7) {
      // Both polarities through a lead sum to twice the physical count.
      EXPECT_EQ(alive.through(circuit, lead, false) +
                    alive.through(circuit, lead, true),
                counts.paths_through(lead) * BigUint(2));
    }
  }
}

TEST(AliveCounts, KillsRemoveExactlyTheMatchingPaths) {
  const Circuit circuit = paper_example_circuit();
  KillSet kills(circuit.num_leads());
  const AlivePathCounts before = count_alive_paths(circuit, kills);
  EXPECT_EQ(before.total_alive_logical.to_u64(), 8u);
  // Kill rising paths through g1->h (2 of them: b rising, c-deep
  // rising).
  LeadId g1_h = kNullLead;
  for (LeadId lead = 0; lead < circuit.num_leads(); ++lead)
    if (circuit.gate(circuit.lead(lead).driver).name == "g1" &&
        circuit.gate(circuit.lead(lead).sink).name == "h")
      g1_h = lead;
  ASSERT_NE(g1_h, kNullLead);
  EXPECT_EQ(before.through(circuit, g1_h, true).to_u64(), 2u);
  kills.kill(g1_h, true);
  const AlivePathCounts after = count_alive_paths(circuit, kills);
  EXPECT_EQ(after.total_alive_logical.to_u64(), 6u);
  EXPECT_EQ(after.through(circuit, g1_h, true).to_u64(), 0u);
  EXPECT_EQ(after.through(circuit, g1_h, false).to_u64(), 2u);
}

TEST(AliveCounts, InversionParityRespected) {
  // Through a NAND chain, a path's value alternates; killing one
  // polarity at a deep lead must remove paths whose PI transition has
  // the matching parity.
  Circuit circuit;
  const GateId a = circuit.add_input("a");
  const GateId b = circuit.add_input("b");
  const GateId g1 = circuit.add_gate(GateType::kNand, "g1", {a, b});
  const GateId g2 = circuit.add_gate(GateType::kNand, "g2", {g1, b});
  circuit.add_output("y", g2);
  circuit.finalize();
  KillSet kills(circuit.num_leads());
  // Lead g1->g2 carrying value 1 corresponds to paths with value 0 at
  // a/b (one inversion).  Killing it removes exactly those.
  const LeadId lead = circuit.gate(g2).fanin_leads[0];
  const AlivePathCounts before = count_alive_paths(circuit, kills);
  EXPECT_EQ(before.total_alive_logical.to_u64(), 6u);  // 3 physical
  EXPECT_EQ(before.through(circuit, lead, true).to_u64(), 2u);
  kills.kill(lead, true);
  const AlivePathCounts after = count_alive_paths(circuit, kills);
  EXPECT_EQ(after.total_alive_logical.to_u64(), 4u);
}

}  // namespace
}  // namespace rd
