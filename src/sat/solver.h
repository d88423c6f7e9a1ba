// A compact CDCL SAT solver.
//
// Conflict-driven clause learning with two-watched-literal propagation,
// first-UIP learning with non-chronological backjumping, activity-based
// (VSIDS-style) decision ordering with phase saving, and an incremental
// assumption interface.  It is the third exact engine of the library
// (after exhaustive enumeration and BDDs): circuits are Tseitin-encoded
// once (src/sat/cnf.h) and per-path sensitizability questions become
// solve-under-assumptions queries, which scales to circuits whose BDDs
// are infeasible.
//
// Literal encoding: variable v (0-based) has positive literal 2v and
// negative literal 2v+1 (sign in the low bit).
#pragma once

#include <cstdint>
#include <vector>

#include "util/exec_guard.h"

namespace rd {

using SatVar = std::uint32_t;
using SatLit = std::uint32_t;

constexpr SatLit mk_lit(SatVar var, bool negative = false) {
  return 2 * var + (negative ? 1 : 0);
}
constexpr SatVar lit_var(SatLit lit) { return lit >> 1; }
constexpr bool lit_negative(SatLit lit) { return (lit & 1) != 0; }
constexpr SatLit lit_negate(SatLit lit) { return lit ^ 1; }

enum class SatResult : std::uint8_t { kSat, kUnsat, kUnknown };

class SatSolver {
 public:
  SatSolver() = default;
  ~SatSolver() { set_guard(nullptr); }
  SatSolver(const SatSolver&) = delete;
  SatSolver& operator=(const SatSolver&) = delete;

  /// Creates a fresh variable and returns its index.
  SatVar new_var();
  std::size_t num_vars() const { return assigns_.size(); }

  /// Adds a clause (empty clause makes the instance trivially unsat).
  /// Returns false if the solver is already in an unsat state.
  bool add_clause(std::vector<SatLit> literals);

  /// Solves under the given assumptions.  kUnknown only if
  /// `max_conflicts` (0 = unlimited) is exhausted or the attached
  /// guard trips — last_abort_reason() distinguishes the causes.
  SatResult solve(const std::vector<SatLit>& assumptions = {},
                  std::uint64_t max_conflicts = 0);

  /// Model access after kSat.
  bool model_value(SatVar var) const { return model_[var]; }

  std::uint64_t conflicts() const { return stats_conflicts_; }
  std::uint64_t decisions() const { return stats_decisions_; }
  std::uint64_t propagations() const { return stats_propagations_; }

  /// Attaches an execution guard: it is polled once per conflict (each
  /// learnt clause also charges its approximate footprint until the
  /// guard is detached or the solver destroyed), and a trip makes the
  /// current solve() return kUnknown after backtracking to level 0 —
  /// the solver stays usable.  Pass nullptr to detach.
  void set_guard(ExecGuard* guard) {
    if (guard_ != nullptr) guard_->sub_memory(guard_bytes_);
    guard_ = guard;
    guard_bytes_ = 0;
  }

  /// Why the most recent solve() returned kUnknown: kWorkBudget for
  /// the conflict budget, otherwise the guard's cause.  kNone after
  /// kSat / kUnsat.
  AbortReason last_abort_reason() const { return last_abort_reason_; }

 private:
  enum class LBool : std::uint8_t { kFalse = 0, kTrue = 1, kUndef = 2 };

  struct Clause {
    std::vector<SatLit> literals;
    bool learnt = false;
  };

  LBool value(SatLit lit) const {
    const LBool assigned = assigns_[lit_var(lit)];
    if (assigned == LBool::kUndef) return LBool::kUndef;
    const bool truth = (assigned == LBool::kTrue) != lit_negative(lit);
    return truth ? LBool::kTrue : LBool::kFalse;
  }

  void enqueue(SatLit lit, std::int32_t reason);
  /// Returns the index of a conflicting clause or -1.
  std::int32_t propagate();
  void analyze(std::int32_t conflict, std::vector<SatLit>& learnt,
               std::uint32_t& backjump_level);
  void backtrack(std::uint32_t level);
  void bump(SatVar var);
  void decay();
  SatLit pick_branch();
  void attach(std::int32_t clause_index);

  std::vector<Clause> clauses_;
  std::vector<std::vector<std::int32_t>> watches_;  // per literal
  std::vector<LBool> assigns_;        // per var
  std::vector<bool> phase_;           // saved phase per var
  std::vector<double> activity_;      // per var
  std::vector<std::uint32_t> level_;  // per var
  std::vector<std::int32_t> reason_;  // per var: clause index or -1
  std::vector<SatLit> trail_;
  std::vector<std::size_t> trail_limits_;
  std::size_t propagate_head_ = 0;
  double activity_increment_ = 1.0;
  bool unsat_ = false;
  std::vector<bool> model_;
  std::vector<bool> seen_;  // scratch for analyze()

  std::uint64_t stats_conflicts_ = 0;
  std::uint64_t stats_decisions_ = 0;
  std::uint64_t stats_propagations_ = 0;

  ExecGuard* guard_ = nullptr;
  std::uint64_t guard_bytes_ = 0;  // learnt-clause bytes charged to guard_
  AbortReason last_abort_reason_ = AbortReason::kNone;
};

}  // namespace rd
