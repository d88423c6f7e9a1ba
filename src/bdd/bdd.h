// Reduced ordered binary decision diagrams.
//
// A compact, self-contained ROBDD package: unique table for canonical
// nodes, memoized ITE, the usual boolean connectives, satisfiability
// witnesses and model counting.  It exists to give the library *exact*
// functional reasoning at a scale the 2^n enumeration sweeps in
// core/exact.h cannot reach: exact logical-path sensitizability
// (bdd_sensitizable) and combinational equivalence checking
// (check_equivalent), both in bdd/bdd_circuit.h, used to validate the
// synthesizer and the leaf-dag baseline.
//
// Nodes are arena-allocated and never freed (no reference counting or
// garbage collection); a configurable node limit aborts runaway
// constructions instead, which callers treat as "answer unknown".
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "util/biguint.h"

namespace rd {

/// Handle to a BDD node within a BddManager (0 = false, 1 = true).
using BddRef = std::uint32_t;

constexpr BddRef kBddFalse = 0;
constexpr BddRef kBddTrue = 1;

class BddManager {
 public:
  /// `num_vars` fixes the variable order: variable i is tested at
  /// level i (smaller index closer to the root).
  explicit BddManager(std::uint32_t num_vars,
                      std::size_t max_nodes = 1u << 22);

  std::uint32_t num_vars() const { return num_vars_; }
  std::size_t num_nodes() const { return nodes_.size(); }

  /// The function of a single variable.
  BddRef var(std::uint32_t index);
  /// Its complement.
  BddRef nvar(std::uint32_t index);

  BddRef ite(BddRef f, BddRef g, BddRef h);
  BddRef bdd_not(BddRef f) { return ite(f, kBddFalse, kBddTrue); }
  BddRef bdd_and(BddRef f, BddRef g) { return ite(f, g, kBddFalse); }
  BddRef bdd_or(BddRef f, BddRef g) { return ite(f, kBddTrue, g); }
  BddRef bdd_xor(BddRef f, BddRef g) { return ite(f, bdd_not(g), g); }
  BddRef bdd_xnor(BddRef f, BddRef g) { return ite(f, g, bdd_not(g)); }

  /// f with variable `index` fixed to `value`.
  BddRef restrict_var(BddRef f, std::uint32_t index, bool value);

  /// Evaluates f under a complete assignment.
  bool evaluate(BddRef f, const std::vector<bool>& assignment) const;

  /// A satisfying assignment (unconstrained variables default false),
  /// or nullopt if f == false.
  std::optional<std::vector<bool>> any_sat(BddRef f) const;

  /// Number of satisfying assignments over all num_vars variables.
  BigUint sat_count(BddRef f) const;

  /// Thrown (as std::runtime_error) when max_nodes is exceeded.
  struct NodeLimitExceeded;

 private:
  struct Node {
    std::uint32_t var;  // level; terminals use num_vars_
    BddRef lo;
    BddRef hi;
  };

  std::uint32_t level(BddRef f) const { return nodes_[f].var; }
  BddRef make_node(std::uint32_t var, BddRef lo, BddRef hi);

  std::uint32_t num_vars_;
  std::size_t max_nodes_;
  std::vector<Node> nodes_;
  std::unordered_map<std::uint64_t, BddRef> unique_;
  std::unordered_map<std::uint64_t, BddRef> ite_cache_;
};

}  // namespace rd
