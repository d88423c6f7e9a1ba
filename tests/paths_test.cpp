// Tests for path representation and structural path counting: counts
// cross-checked against explicit enumeration, per-lead |P(l)| values,
// and path utilities (transition parity, validity, rendering).
#include <gtest/gtest.h>

#include <set>

#include "gen/examples.h"
#include "gen/iscas_like.h"
#include "paths/counting.h"
#include "paths/path.h"

namespace rd {
namespace {

std::vector<PhysicalPath> all_paths(const Circuit& circuit) {
  std::vector<PhysicalPath> paths;
  EXPECT_TRUE(enumerate_paths(
      circuit, [&](const PhysicalPath& path) { paths.push_back(path); },
      1u << 22));
  return paths;
}

TEST(Paths, PaperExampleHasFourPhysicalPaths) {
  const Circuit circuit = paper_example_circuit();
  const PathCounts counts(circuit);
  EXPECT_EQ(counts.total_physical().to_u64(), 4u);
  EXPECT_EQ(counts.total_logical().to_u64(), 8u);
  EXPECT_EQ(all_paths(circuit).size(), 4u);
}

TEST(Paths, C17Counts) {
  const Circuit circuit = c17();
  const PathCounts counts(circuit);
  const auto paths = all_paths(circuit);
  EXPECT_EQ(counts.total_physical().to_u64(), paths.size());
  // c17 has 11 physical paths (a classic figure).
  EXPECT_EQ(paths.size(), 11u);
  EXPECT_EQ(counts.total_logical().to_u64(), 22u);
}

TEST(Paths, CountsMatchEnumerationOnRandomCircuits) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    IscasProfile profile;
    profile.name = "rand";
    profile.num_inputs = 8;
    profile.num_outputs = 4;
    profile.num_gates = 40;
    profile.num_levels = 6;
    profile.xor_fraction = 0.15;
    profile.seed = seed;
    const Circuit circuit = make_iscas_like(profile);
    const PathCounts counts(circuit);
    const auto paths = all_paths(circuit);
    ASSERT_EQ(counts.total_physical().to_u64(), paths.size())
        << "seed " << seed;
    // Every enumerated path is structurally valid and distinct.
    std::set<std::vector<LeadId>> seen;
    for (const auto& path : paths) {
      ASSERT_TRUE(is_valid_path(circuit, path));
      ASSERT_TRUE(seen.insert(path.leads).second);
    }
  }
}

TEST(Paths, PerLeadCountsMatchEnumeration) {
  IscasProfile profile;
  profile.name = "rand";
  profile.num_inputs = 6;
  profile.num_outputs = 3;
  profile.num_gates = 30;
  profile.num_levels = 5;
  profile.seed = 77;
  const Circuit circuit = make_iscas_like(profile);
  const PathCounts counts(circuit);
  std::vector<std::uint64_t> through(circuit.num_leads(), 0);
  for (const auto& path : all_paths(circuit))
    for (LeadId lead : path.leads) ++through[lead];
  for (LeadId lead = 0; lead < circuit.num_leads(); ++lead)
    ASSERT_EQ(counts.paths_through(lead).to_u64(), through[lead])
        << "lead " << lead;
}

TEST(Paths, ArrivalsAndDepartures) {
  const Circuit circuit = paper_example_circuit();
  const PathCounts counts(circuit);
  for (GateId pi : circuit.inputs())
    EXPECT_EQ(counts.arrivals(pi).to_u64(), 1u);
  for (GateId po : circuit.outputs())
    EXPECT_EQ(counts.departures(po).to_u64(), 1u);
  // PI c reaches the output through three distinct path tails? c feeds
  // g1 and h: departures(c) = dep(g1) + dep(h) = 1 + 1 = 2.
  const GateId c = circuit.inputs()[2];
  EXPECT_EQ(counts.departures(c).to_u64(), 2u);
  const GateId b = circuit.inputs()[1];
  EXPECT_EQ(counts.departures(b).to_u64(), 1u);
}

TEST(Paths, MultiplierCountsExceed64Bit) {
  const Circuit circuit = make_array_multiplier(16);
  const PathCounts counts(circuit);
  EXPECT_FALSE(counts.total_logical().fits_u64());
  // The paper quotes > 1.9e20 logical paths for c6288; the synthetic
  // multiplier must land in a comparable magnitude (>= 1e19).
  EXPECT_GT(counts.total_logical().to_double(), 1e19);
}

TEST(Paths, ValueOnLeadTracksInversionParity) {
  Circuit circuit;
  const GateId a = circuit.add_input("a");
  const GateId n1 = circuit.add_gate(GateType::kNot, "n1", {a});
  const GateId g = circuit.add_gate(GateType::kNand, "g", {n1, a});
  const GateId b = circuit.add_gate(GateType::kBuf, "b", {g});
  circuit.add_output("o", b);
  circuit.finalize();
  // Path a -> n1 -> g -> b -> o.
  PhysicalPath path;
  path.leads = {circuit.gate(n1).fanin_leads[0], circuit.gate(g).fanin_leads[0],
                circuit.gate(b).fanin_leads[0],
                circuit.gate(circuit.outputs()[0]).fanin_leads[0]};
  ASSERT_TRUE(is_valid_path(circuit, path));
  // Rising at a: lead0 carries 1, after NOT 0, after NAND 1, after BUF 1.
  EXPECT_TRUE(value_on_lead(circuit, path, 0, true));
  EXPECT_FALSE(value_on_lead(circuit, path, 1, true));
  EXPECT_TRUE(value_on_lead(circuit, path, 2, true));
  EXPECT_TRUE(value_on_lead(circuit, path, 3, true));
  // Falling at a: complementary values everywhere.
  EXPECT_FALSE(value_on_lead(circuit, path, 0, false));
  EXPECT_TRUE(value_on_lead(circuit, path, 1, false));
  EXPECT_FALSE(value_on_lead(circuit, path, 2, false));
}

TEST(Paths, PathEndpointsAndRendering) {
  const Circuit circuit = paper_example_circuit();
  const auto paths = all_paths(circuit);
  for (const auto& path : paths) {
    EXPECT_EQ(circuit.gate(path_pi(circuit, path)).type, GateType::kInput);
    EXPECT_EQ(circuit.gate(path_po(circuit, path)).type, GateType::kOutput);
    const LogicalPath rising{path, true};
    const std::string text = path_to_string(circuit, rising);
    EXPECT_NE(text.find("(R)"), std::string::npos);
    EXPECT_NE(text.find("-> y"), std::string::npos);
  }
}

TEST(Paths, LogicalPathKeysDistinguishTransitions) {
  const Circuit circuit = paper_example_circuit();
  const auto paths = all_paths(circuit);
  const LogicalPath rising{paths[0], true};
  const LogicalPath falling{paths[0], false};
  EXPECT_NE(rising.key(), falling.key());
  EXPECT_EQ(rising.key().size(), paths[0].leads.size() + 1);
}

TEST(Paths, FromKeyInvertsKey) {
  const Circuit circuit = paper_example_circuit();
  for (const PhysicalPath& physical : all_paths(circuit)) {
    for (const bool final_value : {false, true}) {
      const LogicalPath path{physical, final_value};
      EXPECT_EQ(LogicalPath::from_key(path.key()), path);
    }
  }
}

TEST(Paths, InvalidPathsRejected) {
  const Circuit circuit = paper_example_circuit();
  PhysicalPath empty;
  EXPECT_FALSE(is_valid_path(circuit, empty));
  // A path must end at a PO marker: drop the final lead.
  auto paths = all_paths(circuit);
  PhysicalPath truncated = paths[0];
  truncated.leads.pop_back();
  EXPECT_FALSE(is_valid_path(circuit, truncated));
}

TEST(Paths, EnumerationHonorsCap) {
  const Circuit circuit = c17();
  std::size_t visited = 0;
  EXPECT_FALSE(enumerate_paths(
      circuit, [&](const PhysicalPath&) { ++visited; }, 5));
  EXPECT_LE(visited, 5u);
}

}  // namespace
}  // namespace rd
