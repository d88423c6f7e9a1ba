// Unit tests for the netlist core: construction rules, finalize
// invariants (leads, topological order, levels), cone extraction, the
// CSR views' ownership across copies and moves, and the static
// gate-semantics helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "gen/examples.h"
#include "gen/iscas_like.h"
#include "gen/pla_like.h"
#include "io/bench_io.h"
#include "netlist/circuit.h"
#include "netlist/gate_types.h"
#include "synth/synth.h"

namespace rd {
namespace {

TEST(GateTypes, ControllingValues) {
  EXPECT_FALSE(controlling_value(GateType::kAnd));
  EXPECT_FALSE(controlling_value(GateType::kNand));
  EXPECT_TRUE(controlling_value(GateType::kOr));
  EXPECT_TRUE(controlling_value(GateType::kNor));
  EXPECT_TRUE(noncontrolling_value(GateType::kAnd));
  EXPECT_FALSE(noncontrolling_value(GateType::kOr));
}

TEST(GateTypes, ControlledOutputs) {
  EXPECT_FALSE(controlled_output(GateType::kAnd));   // 0 in -> 0 out
  EXPECT_TRUE(controlled_output(GateType::kNand));   // 0 in -> 1 out
  EXPECT_TRUE(controlled_output(GateType::kOr));     // 1 in -> 1 out
  EXPECT_FALSE(controlled_output(GateType::kNor));   // 1 in -> 0 out
  EXPECT_TRUE(noncontrolled_output(GateType::kAnd)); // all 1 -> 1
  EXPECT_FALSE(noncontrolled_output(GateType::kNand));
  EXPECT_FALSE(noncontrolled_output(GateType::kOr)); // all 0 -> 0
  EXPECT_TRUE(noncontrolled_output(GateType::kNor));
}

TEST(GateTypes, InversionAndNames) {
  EXPECT_TRUE(inverts(GateType::kNot));
  EXPECT_TRUE(inverts(GateType::kNand));
  EXPECT_TRUE(inverts(GateType::kNor));
  EXPECT_FALSE(inverts(GateType::kAnd));
  EXPECT_FALSE(inverts(GateType::kBuf));
  EXPECT_EQ(gate_type_name(GateType::kNand), "NAND");
  EXPECT_EQ(gate_type_name(GateType::kInput), "INPUT");
}

Circuit make_small() {
  Circuit circuit("small");
  const GateId a = circuit.add_input("a");
  const GateId b = circuit.add_input("b");
  const GateId n = circuit.add_gate(GateType::kNot, "n", {a});
  const GateId g = circuit.add_gate(GateType::kAnd, "g", {n, b});
  circuit.add_output("o", g);
  circuit.finalize();
  return circuit;
}

TEST(Circuit, BasicStructure) {
  const Circuit circuit = make_small();
  EXPECT_EQ(circuit.num_gates(), 5u);
  EXPECT_EQ(circuit.inputs().size(), 2u);
  EXPECT_EQ(circuit.outputs().size(), 1u);
  EXPECT_EQ(circuit.num_logic_gates(), 2u);
  EXPECT_EQ(circuit.num_leads(), 4u);  // a->n, n->g, b->g, g->o
}

TEST(Circuit, LeadsAreConsistent) {
  const Circuit circuit = make_small();
  for (LeadId lead_id = 0; lead_id < circuit.num_leads(); ++lead_id) {
    const Lead& lead = circuit.lead(lead_id);
    const Gate& sink = circuit.gate(lead.sink);
    ASSERT_LT(lead.pin, sink.fanins.size());
    EXPECT_EQ(sink.fanins[lead.pin], lead.driver);
    EXPECT_EQ(sink.fanin_leads[lead.pin], lead_id);
    // The driver lists this lead among its fanouts.
    const auto& fanouts = circuit.gate(lead.driver).fanout_leads;
    EXPECT_NE(std::find(fanouts.begin(), fanouts.end(), lead_id),
              fanouts.end());
  }
}

TEST(Circuit, TopologicalOrderRespectsEdges) {
  const Circuit circuit = c17();
  const auto& topo = circuit.topo_order();
  EXPECT_EQ(topo.size(), circuit.num_gates());
  for (GateId id = 0; id < circuit.num_gates(); ++id)
    for (GateId fanin : circuit.gate(id).fanins)
      EXPECT_LT(circuit.topo_rank(fanin), circuit.topo_rank(id));
}

TEST(Circuit, LevelsAreLongestDistance) {
  const Circuit circuit = make_small();
  for (GateId pi : circuit.inputs()) EXPECT_EQ(circuit.level(pi), 0u);
  // a -> n -> g -> o is the longest chain: o at level 3.
  EXPECT_EQ(circuit.max_level(), 3u);
}

TEST(Circuit, ArityValidation) {
  Circuit circuit;
  const GateId a = circuit.add_input("a");
  EXPECT_THROW(circuit.add_gate(GateType::kNot, "n", {a, a}),
               std::invalid_argument);
  EXPECT_THROW(circuit.add_gate(GateType::kAnd, "g", {}),
               std::invalid_argument);
  EXPECT_THROW(circuit.add_gate(GateType::kInput, "x", {}),
               std::invalid_argument);
  EXPECT_THROW(circuit.add_gate(GateType::kOutput, "x", {a}),
               std::invalid_argument);
  // Fanins must already exist.
  EXPECT_THROW(circuit.add_gate(GateType::kNot, "n", {99}),
               std::invalid_argument);
}

TEST(Circuit, PoMarkersCannotDrive) {
  Circuit circuit;
  const GateId a = circuit.add_input("a");
  const GateId po = circuit.add_output("o", a);
  EXPECT_THROW(circuit.add_gate(GateType::kNot, "n", {po}),
               std::invalid_argument);
}

TEST(Circuit, EditsRejectedAfterFinalize) {
  Circuit circuit = make_small();
  EXPECT_THROW(circuit.add_input("late"), std::logic_error);
}

TEST(Circuit, FinalizeIsIdempotent) {
  Circuit circuit = make_small();
  const std::size_t leads = circuit.num_leads();
  circuit.finalize();
  EXPECT_EQ(circuit.num_leads(), leads);
}

TEST(Circuit, FaninCone) {
  const Circuit circuit = c17();
  // Cone of output "22" contains inputs 1, 2, 3, 6 but not 7.
  const GateId po22 = circuit.outputs()[0];
  const auto cone = circuit.fanin_cone(po22);
  std::size_t pi_count = 0;
  for (GateId id : cone)
    if (circuit.gate(id).type == GateType::kInput) ++pi_count;
  EXPECT_EQ(pi_count, 4u);
}

TEST(Circuit, ExtractCone) {
  const Circuit circuit = c17();
  const Circuit cone = circuit.extract_cone(circuit.outputs()[1]);
  EXPECT_EQ(cone.outputs().size(), 1u);
  EXPECT_TRUE(cone.finalized());
  // Cone of "23": inputs 2, 3, 6, 7 and gates 11, 16, 19, 23.
  EXPECT_EQ(cone.inputs().size(), 4u);
  EXPECT_EQ(cone.num_logic_gates(), 4u);
  EXPECT_THROW(circuit.extract_cone(circuit.inputs()[0]),
               std::invalid_argument);
}

TEST(Circuit, PaperExampleShape) {
  const Circuit circuit = paper_example_circuit();
  EXPECT_EQ(circuit.inputs().size(), 3u);
  EXPECT_EQ(circuit.outputs().size(), 1u);
  EXPECT_EQ(circuit.num_logic_gates(), 3u);
}

TEST(Circuit, MultiLeadBetweenSameGates) {
  // One gate feeding two pins of another: two distinct leads.
  Circuit circuit;
  const GateId a = circuit.add_input("a");
  const GateId b = circuit.add_input("b");
  const GateId g = circuit.add_gate(GateType::kOr, "g", {a, b});
  const GateId h = circuit.add_gate(GateType::kAnd, "h", {g, g});
  circuit.add_output("o", h);
  circuit.finalize();
  EXPECT_EQ(circuit.gate(h).fanins.size(), 2u);
  EXPECT_NE(circuit.gate(h).fanin_leads[0], circuit.gate(h).fanin_leads[1]);
  EXPECT_EQ(circuit.gate(g).fanout_leads.size(), 2u);
}

/// Every gate's three lists, read back into owned vectors.
struct GateLists {
  std::vector<GateId> fanins;
  std::vector<LeadId> fanin_leads;
  std::vector<LeadId> fanout_leads;
  bool operator==(const GateLists&) const = default;
};

std::vector<GateLists> read_lists(const Circuit& circuit) {
  std::vector<GateLists> lists;
  for (GateId id = 0; id < circuit.num_gates(); ++id) {
    const Gate& gate = circuit.gate(id);
    lists.push_back({{gate.fanins.begin(), gate.fanins.end()},
                     {gate.fanin_leads.begin(), gate.fanin_leads.end()},
                     {gate.fanout_leads.begin(), gate.fanout_leads.end()}});
  }
  return lists;
}

/// `circuit` holds `want`, and every view points into its own arrays.
void expect_owned(const Circuit& circuit, const std::vector<GateLists>& want,
                  const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(read_lists(circuit), want);
  const auto offsets = circuit.fanin_offsets();
  const auto fanout_offsets = circuit.fanout_offsets();
  for (GateId id = 0; id < circuit.num_gates(); ++id) {
    const Gate& gate = circuit.gate(id);
    EXPECT_EQ(gate.fanins.data(), circuit.fanin_ids().data() + offsets[id]);
    EXPECT_EQ(gate.fanout_leads.data(),
              circuit.fanout_lead_ids().data() + fanout_offsets[id]);
  }
}

TEST(Circuit, CopiesOwnTheirAdjacency) {
  const std::vector<GateLists> small = read_lists(make_small());
  const std::vector<GateLists> c17_lists = read_lists(c17());

  std::optional<Circuit> source(c17());
  const Circuit copy = *source;
  source.reset();
  expect_owned(copy, c17_lists, "copy outliving its source");

  Circuit larger = c17();
  const Circuit smaller = make_small();
  larger = smaller;
  expect_owned(larger, small, "copy-assigned into a larger circuit");
  expect_owned(smaller, small, "copy-assignment source");

  Circuit self = c17();
  const Circuit& alias = self;
  self = alias;
  expect_owned(self, c17_lists, "self-assignment");

  Circuit moved = std::move(self);
  expect_owned(moved, c17_lists, "move construction");
  Circuit assigned = make_small();
  assigned = std::move(moved);
  expect_owned(assigned, c17_lists, "move assignment");

  std::vector<Circuit> grown;
  for (int k = 0; k < 9; ++k) grown.push_back(k % 2 ? c17() : make_small());
  for (std::size_t k = 0; k < grown.size(); ++k)
    expect_owned(grown[k], k % 2 ? c17_lists : small,
                 "vector growth, element " + std::to_string(k));
}

TEST(Circuit, FaninsMayViewTheCircuitBeingBuilt) {
  // add_gate reading this circuit's own views while its array grows.
  Circuit circuit;
  const GateId a = circuit.add_input("a");
  const GateId b = circuit.add_input("b");
  GateId last = circuit.add_gate(GateType::kAnd, "g", {a, b});
  for (int k = 1; k < 64; ++k)
    last = circuit.add_gate(GateType::kOr, std::to_string(k),
                            circuit.gate(last).fanins);
  circuit.add_output("o", last);
  circuit.finalize();
  for (GateId id = 2; id + 1 < circuit.num_gates(); ++id)
    EXPECT_TRUE(std::ranges::equal(circuit.gate(id).fanins,
                                   std::vector<GateId>{a, b}));
}

/// FNV-1a 64 over every gate's type, fanins, fanin leads, fanout leads,
/// level and topological rank, then the circuit's .bench text.
std::uint64_t adjacency_digest(const Circuit& circuit) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  const auto byte = [&](std::uint8_t b) {
    hash = (hash ^ b) * 0x100000001b3ull;
  };
  const auto word = [&](std::uint32_t w) {
    for (int shift = 0; shift < 32; shift += 8)
      byte(static_cast<std::uint8_t>(w >> shift));
  };
  const auto list = [&](const auto& ids) {
    word(static_cast<std::uint32_t>(ids.size()));
    for (const std::uint32_t id : ids) word(id);
  };
  for (GateId id = 0; id < circuit.num_gates(); ++id) {
    const Gate& gate = circuit.gate(id);
    word(static_cast<std::uint32_t>(gate.type));
    list(gate.fanins);
    list(gate.fanin_leads);
    list(gate.fanout_leads);
    word(circuit.level(id));
    word(circuit.topo_rank(id));
  }
  for (const char c : write_bench_string(circuit))
    byte(static_cast<std::uint8_t>(c));
  return hash;
}

TEST(Circuit, StandInAdjacencyIsPinned) {
  // The netlists the benchmarks run: the ten Table II stand-ins as
  // generated, the four atpg-pla covers as read back from .bench text,
  // and every .bench file under data/.  Gate ids, lead ids, pin and
  // fanout order, topological order and levels are all pinned.
  const std::map<std::string, std::uint64_t> pinned = {
      {"c1355", 0x79ade3914718ceddull},
      {"c1908", 0xe929b2a7a1448723ull},
      {"c2670", 0x9c764048cc2c616cull},
      {"c3540", 0x2995ed97b6a4a659ull},
      {"c432", 0x31091a87c4d94a49ull},
      {"c499", 0x28d039a792bc9061ull},
      {"c5315", 0x1f3e050711e2fb86ull},
      {"c6288", 0xa7ad19960c82bb41ull},
      {"c7552", 0x89b0e6d3ef59ef64ull},
      {"c880", 0x7654ecb7d4071931ull},
      {"data/c17.bench", 0xdd67d38f3f9911d7ull},
      {"data/paper_example.bench", 0xd4ccd78c308cc6a0ull},
      {"pb1", 0xb08d201b673ff4a3ull},
      {"pb2", 0xb0f626d6c407ab40ull},
      {"pb3", 0xbe91f31e0577956full},
      {"pb4", 0x5a2feb4e39b89c5eull},
  };
  std::map<std::string, std::uint64_t> actual;
  for (const IscasProfile& profile : iscas85_profiles())
    actual[profile.name] = adjacency_digest(make_benchmark(profile.name));
  for (std::uint64_t k = 1; k <= 4; ++k) {
    PlaProfile profile;
    profile.name = "pb" + std::to_string(k);
    profile.num_inputs = 10;
    profile.num_outputs = 6;
    profile.num_cubes = 24 + 2 * k;
    profile.min_literals = 2;
    profile.max_literals = 6;
    profile.output_density = 0.3;
    profile.seed = 700 + k;
    const Circuit cover = synthesize_multilevel(make_pla_like(profile));
    actual[profile.name] =
        adjacency_digest(read_bench_string(write_bench_string(cover)));
  }
  for (const auto& entry : std::filesystem::directory_iterator("data"))
    if (entry.path().extension() == ".bench")
      actual["data/" + entry.path().filename().string()] =
          adjacency_digest(read_bench_file(entry.path().string()));
  std::string listing;
  for (const auto& [name, digest] : actual) {
    char line[64];
    std::snprintf(line, sizeof line, "      {\"%s\", 0x%016llxull},\n",
                  name.c_str(), static_cast<unsigned long long>(digest));
    listing += line;
  }
  EXPECT_EQ(actual, pinned) << "digests now:\n" << listing;
}

}  // namespace
}  // namespace rd
