// Deep-path synthetic generator: a multiplier-like carry-chain mesh.
//
// The path-exponential regime the paper's c6288 rows exercise — path
// count doubling with every logic level — comes from carry-save
// structure: each cell consumes its own column's previous result *and*
// a neighbor's, so every level multiplies the number of distinct
// PI-to-PO routes by the fanin count.  This generator distills that
// shape into its minimal parameterized form: a width × depth torus
// mesh where cell (r, j) combines cells (r-1, j) and (r-1, j+1 mod
// width), with gate types cycling AND/OR/NAND/NOR down the rows so
// both controlling values and inversion parities alternate (the
// classification criteria see every case).
//
// Closed-form structural counts, asserted by tests/path_tree_test.cpp
// against PathCounts and enumerate_paths:
//
//   physical paths  = width * 2^depth      (each PI reaches each level
//                                           through 2^r routes)
//   logical paths   = 2 * width * 2^depth
//   path length     = depth + 1 leads (the last one into the PO)
//
// The prefix tree, by contrast, has only Θ(width · 2^depth) *edges*
// total but every flat enumeration re-walks Θ(depth) leads per path —
// the sharing factor the classifier's prefix-tree DFS exploits.
#pragma once

#include <cstddef>
#include <string>

#include "netlist/circuit.h"

namespace rd {

/// Shape parameters of one carry-chain mesh.
struct CarryMeshProfile {
  std::string name = "carry-mesh";
  std::size_t width = 4;   // columns (also PI and PO count); >= 2
  std::size_t depth = 8;   // logic levels; >= 1
};

/// Generates the finalized mesh.  Deterministic (no seed): structure
/// is fully specified by width and depth.
Circuit make_carry_mesh(const CarryMeshProfile& profile);

}  // namespace rd
