// Built-in example circuits.
//
// * paper_example_circuit(): a reconstruction of the three-input
//   example used throughout the paper (Figures 1, 2, 4, 5, taken there
//   from Lam et al. [1]): four physical / eight logical paths, several
//   stabilizing systems for v = 111, an optimal complete stabilizing
//   assignment with |LP(σ')| = 5 whose five paths are exactly the
//   robustly testable ones.  The structure y = AND(OR(a,b), OR(b,c))
//   reproduces all of those counts (validated in the test suite).
// * c17(): the genuine ISCAS-85 c17 netlist (six NAND gates) — the one
//   benchmark small enough to embed verbatim.
#pragma once

#include "netlist/circuit.h"

namespace rd {

/// The paper's running example: 3 PIs a,b,c; y = (a+b)(b+c).
Circuit paper_example_circuit();

/// ISCAS-85 c17: 5 inputs, 2 outputs, 6 NAND gates (exact netlist).
Circuit c17();

/// A circuit whose FS^sup over-keeps provably: the side constraints of
/// the m-to-PO path encode the unsatisfiable CNF
/// (c+d)(c'+d)(c+d')(c'+d') through four OR side inputs, yet the
/// ternary drain never sees a conflict (no single literal is forced).
/// Local implications keep 8 paths where the exact FS set has 7; the
/// extra one is robust dependent, and a SAT sensitizability query
/// finds no witness vector for it.
Circuit unsat_side_constraint_circuit();

}  // namespace rd
