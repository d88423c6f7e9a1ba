// Canonical per-PO cone extraction and signatures (DESIGN.md §13):
// the parent maps must describe a faithful embedding, the canonical
// numbering must be a pure function of cone structure (so isomorphic
// cones share bytes, signatures and cached keys), and any structural
// edit inside a cone must change its signature while leaving untouched
// cones' signatures intact.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "gen/examples.h"
#include "gen/iscas_like.h"
#include "netlist/cone_signature.h"
#include "netlist/transform.h"
#include "paths/counting.h"
#include "util/biguint.h"

namespace rd {
namespace {

std::vector<Circuit> fixtures() {
  std::vector<Circuit> circuits;
  circuits.push_back(paper_example_circuit());
  circuits.push_back(c17());
  circuits.push_back(make_benchmark("c432"));
  IscasProfile profile;
  profile.name = "cone_fix";
  profile.num_inputs = 8;
  profile.num_outputs = 4;
  profile.num_gates = 30;
  profile.num_levels = 5;
  profile.xor_fraction = 0.1;
  profile.seed = 11;
  circuits.push_back(make_iscas_like(profile));
  return circuits;
}

TEST(ConeExtraction, ParentMapsDescribeAFaithfulEmbedding) {
  for (const Circuit& circuit : fixtures()) {
    for (const GateId po : circuit.outputs()) {
      const ConeExtraction ex = extract_cone_canonical(circuit, po);
      ASSERT_EQ(ex.cone.outputs().size(), 1u) << circuit.name();
      ASSERT_EQ(ex.parent_gate.size(), ex.cone.num_gates());
      ASSERT_EQ(ex.parent_lead.size(), ex.cone.num_leads());
      EXPECT_EQ(ex.parent_gate[ex.cone.outputs()[0]], po);

      for (GateId g = 0; g < ex.cone.num_gates(); ++g) {
        const Gate& cone_gate = ex.cone.gate(g);
        const Gate& parent_gate = circuit.gate(ex.parent_gate[g]);
        ASSERT_EQ(cone_gate.type, parent_gate.type)
            << circuit.name() << " cone gate " << g;
        ASSERT_EQ(cone_gate.fanins.size(), parent_gate.fanins.size());
        // Pin-for-pin: the cone's wiring is the parent's wiring.
        for (std::uint32_t pin = 0; pin < cone_gate.fanins.size(); ++pin)
          EXPECT_EQ(ex.parent_gate[cone_gate.fanins[pin]],
                    parent_gate.fanins[pin]);
      }
      for (LeadId l = 0; l < ex.cone.num_leads(); ++l) {
        const Lead& cone_lead = ex.cone.lead(l);
        const Lead& parent_lead = circuit.lead(ex.parent_lead[l]);
        EXPECT_EQ(ex.parent_gate[cone_lead.driver], parent_lead.driver);
        EXPECT_EQ(ex.parent_gate[cone_lead.sink], parent_lead.sink);
        EXPECT_EQ(cone_lead.pin, parent_lead.pin);
      }
    }
  }
}

// Every logical path ends at exactly one PO, so the cone totals must
// partition the whole-circuit total — the identity the eco driver's
// aggregation relies on.
TEST(ConeExtraction, ConePathTotalsPartitionTheCircuitTotal) {
  for (const Circuit& circuit : fixtures()) {
    BigUint sum;
    for (const GateId po : circuit.outputs())
      sum += PathCounts(extract_cone_canonical(circuit, po).cone)
                 .total_logical();
    EXPECT_EQ(sum, PathCounts(circuit).total_logical()) << circuit.name();
  }
}

TEST(ConeSignature, DeterministicAcrossExtractions) {
  for (const Circuit& circuit : fixtures()) {
    for (const GateId po : circuit.outputs()) {
      const ConeExtraction a = extract_cone_canonical(circuit, po);
      const ConeExtraction b = extract_cone_canonical(circuit, po);
      const auto bytes_a = cone_canonical_bytes(a.cone, "2");
      const auto bytes_b = cone_canonical_bytes(b.cone, "2");
      EXPECT_EQ(bytes_a, bytes_b);
      EXPECT_EQ(cone_signature(bytes_a), cone_signature(bytes_b));
    }
  }
}

TEST(ConeSignature, SortSpecIsPartOfTheKey) {
  const Circuit circuit = c17();
  const ConeExtraction ex =
      extract_cone_canonical(circuit, circuit.outputs()[0]);
  const auto h2 = cone_canonical_bytes(ex.cone, "2");
  const auto h1 = cone_canonical_bytes(ex.cone, "1");
  const auto fus = cone_canonical_bytes(ex.cone, "fus");
  EXPECT_NE(h2, h1);
  EXPECT_NE(h2, fus);
  EXPECT_NE(cone_signature(h2), cone_signature(h1));
}

// Two structurally identical cones hanging off different inputs must
// produce identical canonical bytes — name- and placement-blind.
TEST(ConeSignature, IsomorphicConesShareCanonicalBytes) {
  Circuit circuit("twins");
  const GateId a = circuit.add_input("a");
  const GateId b = circuit.add_input("b");
  const GateId c = circuit.add_input("c");
  const GateId d = circuit.add_input("d");
  const GateId g1 = circuit.add_gate(GateType::kAnd, "g1", {a, b});
  const GateId n1 = circuit.add_gate(GateType::kNor, "n1", {g1, b});
  // Same shape, different inputs and different names.
  const GateId g2 = circuit.add_gate(GateType::kAnd, "left", {c, d});
  const GateId n2 = circuit.add_gate(GateType::kNor, "right", {g2, d});
  circuit.add_output("o1", n1);
  circuit.add_output("o2", n2);
  circuit.finalize();

  const ConeExtraction e1 =
      extract_cone_canonical(circuit, circuit.outputs()[0]);
  const ConeExtraction e2 =
      extract_cone_canonical(circuit, circuit.outputs()[1]);
  EXPECT_EQ(cone_canonical_bytes(e1.cone, "2"),
            cone_canonical_bytes(e2.cone, "2"));
  // ...while mapping back to *different* parent leads.
  EXPECT_NE(e1.parent_lead, e2.parent_lead);
}

// An ECO edit must change the signature of every cone containing the
// edited gate and no other.
TEST(ConeSignature, EditChangesExactlyTheTouchedCones) {
  for (const Circuit& circuit : fixtures()) {
    // Pick the first editable logic gate (AND<->OR keeps arity legal).
    GateId edited = kNullGate;
    GateType new_type = GateType::kOr;
    for (GateId g = 0; g < circuit.num_gates(); ++g) {
      const GateType t = circuit.gate(g).type;
      if (t == GateType::kAnd || t == GateType::kNand) {
        edited = g;
        new_type = t == GateType::kAnd ? GateType::kOr : GateType::kNor;
        break;
      }
    }
    ASSERT_NE(edited, kNullGate) << circuit.name();
    const Circuit after = with_gate_type(circuit, edited, new_type);
    ASSERT_EQ(after.num_gates(), circuit.num_gates());

    for (std::size_t i = 0; i < circuit.outputs().size(); ++i) {
      const ConeExtraction before_ex =
          extract_cone_canonical(circuit, circuit.outputs()[i]);
      const ConeExtraction after_ex =
          extract_cone_canonical(after, after.outputs()[i]);
      bool contains_edit = false;
      for (const GateId parent : before_ex.parent_gate)
        if (parent == edited) contains_edit = true;
      const auto before_bytes = cone_canonical_bytes(before_ex.cone, "2");
      const auto after_bytes = cone_canonical_bytes(after_ex.cone, "2");
      if (contains_edit) {
        EXPECT_NE(before_bytes, after_bytes)
            << circuit.name() << " PO " << i;
      } else {
        EXPECT_EQ(before_bytes, after_bytes)
            << circuit.name() << " PO " << i;
      }
    }
  }
}

TEST(ConeExtraction, RejectsNonOutputs) {
  const Circuit circuit = c17();
  EXPECT_THROW(extract_cone_canonical(circuit, circuit.inputs()[0]),
               std::invalid_argument);
}

TEST(WithGateType, PreservesIdsAndRejectsIllegalEdits) {
  const Circuit circuit = c17();
  GateId nand = kNullGate;
  for (GateId g = 0; g < circuit.num_gates(); ++g)
    if (circuit.gate(g).type == GateType::kNand) {
      nand = g;
      break;
    }
  ASSERT_NE(nand, kNullGate);
  const Circuit edited = with_gate_type(circuit, nand, GateType::kNor);
  ASSERT_EQ(edited.num_gates(), circuit.num_gates());
  ASSERT_EQ(edited.num_leads(), circuit.num_leads());
  EXPECT_EQ(edited.gate(nand).type, GateType::kNor);
  for (GateId g = 0; g < circuit.num_gates(); ++g) {
    EXPECT_EQ(edited.gate(g).name, circuit.gate(g).name);
    EXPECT_TRUE(
        std::ranges::equal(edited.gate(g).fanins, circuit.gate(g).fanins));
    if (g != nand) {
      EXPECT_EQ(edited.gate(g).type, circuit.gate(g).type);
    }
  }
  EXPECT_THROW(with_gate_type(circuit, circuit.inputs()[0], GateType::kAnd),
               std::invalid_argument);
  EXPECT_THROW(with_gate_type(circuit, nand, GateType::kNot),
               std::invalid_argument);  // arity 2 gate, NOT takes one
  EXPECT_THROW(with_gate_type(circuit, circuit.num_gates(), GateType::kOr),
               std::invalid_argument);
}

}  // namespace
}  // namespace rd
