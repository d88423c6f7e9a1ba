// Tseitin encoding of circuits into CNF, and SAT-backed exact checks:
// per-path sensitizability as solve-under-assumptions (the scalable
// exact engine behind the approximation-quality experiments) and
// miter-based combinational equivalence.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/classify.h"
#include "netlist/circuit.h"
#include "paths/path.h"
#include "sat/solver.h"

namespace rd {

/// One-time Tseitin encoding: one SAT variable per gate, constraint
/// clauses per gate function.  The circuit's consistent assignments
/// biject with the solver's models over these variables.
class CircuitCnf {
 public:
  CircuitCnf(const Circuit& circuit, SatSolver& solver);

  /// Encodes only `circuit.fanin_cone(root)`, keeping the parent's
  /// gate ids: every query about a path to PO `root` touches only cone
  /// gates, so it answers as on the whole-circuit encoding while each
  /// model spans the cone alone.  Gates outside the cone have no
  /// variable and must not be queried.
  CircuitCnf(const Circuit& circuit, SatSolver& solver, GateId root);

  SatVar gate_var(GateId id) const { return vars_[id]; }

  /// Literal asserting "gate output == value".
  SatLit gate_lit(GateId id, bool value) const {
    return mk_lit(vars_[id], /*negative=*/!value);
  }

 private:
  std::vector<SatVar> vars_;
};

/// Exact sensitizability of a logical path under FS / NR / (π1)-(π3):
/// a single incremental SAT query per path against a shared encoding.
/// nullopt if the conflict budget is exhausted.
std::optional<bool> sat_sensitizable(const Circuit& circuit,
                                     const CircuitCnf& cnf, SatSolver& solver,
                                     const LogicalPath& path,
                                     Criterion criterion,
                                     const InputSort* sort = nullptr,
                                     std::uint64_t max_conflicts = 100000);

/// Miter-based combinational equivalence (PIs and POs matched by
/// name).  nullopt if the conflict budget is exhausted.
std::optional<bool> sat_equivalent(const Circuit& a, const Circuit& b,
                                   std::uint64_t max_conflicts = 1000000);

/// DIMACS export of a circuit's Tseitin encoding (one variable per
/// gate, 1-based, in GateId order), for interop with external SAT
/// tooling.  A comment header maps PIs and POs to variable indices.
std::string write_dimacs_string(const Circuit& circuit);

}  // namespace rd
