#include "gen/examples.h"

namespace rd {

Circuit paper_example_circuit() {
  // y = a + (bc + c).  Reconstructed from the paper's figures: under
  // v = 111 there are exactly three stabilizing systems (Fig. 1); the
  // assignment of Example 2 keeps 6 of the 8 logical paths, one of
  // which (b falling, the dashed line of Fig. 2) is functionally
  // sensitizable but neither robustly nor non-robustly testable; the
  // optimum assignment (Figs. 4-5) keeps the 5 robustly testable
  // paths.  All of these counts are asserted in the test suite.
  Circuit circuit("paper_example");
  const GateId a = circuit.add_input("a");
  const GateId b = circuit.add_input("b");
  const GateId c = circuit.add_input("c");
  const GateId g1 = circuit.add_gate(GateType::kAnd, "g1", {b, c});
  const GateId h = circuit.add_gate(GateType::kOr, "h", {g1, c});
  const GateId y = circuit.add_gate(GateType::kOr, "y", {a, h});
  circuit.add_output("y", y);
  circuit.finalize();
  return circuit;
}

Circuit c17() {
  Circuit circuit("c17");
  const GateId g1 = circuit.add_input("1");
  const GateId g2 = circuit.add_input("2");
  const GateId g3 = circuit.add_input("3");
  const GateId g6 = circuit.add_input("6");
  const GateId g7 = circuit.add_input("7");
  const GateId g10 = circuit.add_gate(GateType::kNand, "10", {g1, g3});
  const GateId g11 = circuit.add_gate(GateType::kNand, "11", {g3, g6});
  const GateId g16 = circuit.add_gate(GateType::kNand, "16", {g2, g11});
  const GateId g19 = circuit.add_gate(GateType::kNand, "19", {g11, g7});
  const GateId g22 = circuit.add_gate(GateType::kNand, "22", {g10, g16});
  const GateId g23 = circuit.add_gate(GateType::kNand, "23", {g16, g19});
  circuit.add_output("22", g22);
  circuit.add_output("23", g23);
  circuit.finalize();
  return circuit;
}

Circuit unsat_side_constraint_circuit() {
  // The rising-m path z1..z5 asserts s1..s4 = 1 (non-controlling tips
  // at the AND gates) — jointly unsatisfiable, pairwise silent under
  // ternary propagation.  The z4->z5 lead has a controlling tip under
  // FS, so its side input c stays unknown.
  Circuit circuit("unsat_side");
  const GateId m = circuit.add_input("m");
  const GateId c = circuit.add_input("c");
  const GateId d = circuit.add_input("d");
  const GateId nc = circuit.add_gate(GateType::kNot, "nc", {c});
  const GateId nd = circuit.add_gate(GateType::kNot, "nd", {d});
  const GateId s1 = circuit.add_gate(GateType::kOr, "s1", {c, d});
  const GateId s2 = circuit.add_gate(GateType::kOr, "s2", {nc, d});
  const GateId s3 = circuit.add_gate(GateType::kOr, "s3", {c, nd});
  const GateId s4 = circuit.add_gate(GateType::kOr, "s4", {nc, nd});
  const GateId z1 = circuit.add_gate(GateType::kAnd, "z1", {m, s1});
  const GateId z2 = circuit.add_gate(GateType::kAnd, "z2", {z1, s2});
  const GateId z3 = circuit.add_gate(GateType::kAnd, "z3", {z2, s3});
  const GateId z4 = circuit.add_gate(GateType::kAnd, "z4", {z3, s4});
  const GateId z5 = circuit.add_gate(GateType::kOr, "z5", {z4, c});
  circuit.add_output("z5", z5);
  circuit.finalize();
  return circuit;
}

}  // namespace rd
