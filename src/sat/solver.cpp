#include "sat/solver.h"

#include <algorithm>
#include <cmath>

namespace rd {

SatVar SatSolver::new_var() {
  const SatVar var = static_cast<SatVar>(assigns_.size());
  assigns_.push_back(LBool::kUndef);
  phase_.push_back(false);
  activity_.push_back(0.0);
  level_.push_back(0);
  reason_.push_back(-1);
  seen_.push_back(false);
  watches_.emplace_back();
  watches_.emplace_back();
  return var;
}

bool SatSolver::add_clause(std::vector<SatLit> literals) {
  if (unsat_) return false;

  // Normalize: sort, dedupe, drop tautologies and false-at-root
  // literals, drop clauses true at root.
  std::sort(literals.begin(), literals.end());
  literals.erase(std::unique(literals.begin(), literals.end()),
                 literals.end());
  std::vector<SatLit> kept;
  for (std::size_t i = 0; i < literals.size(); ++i) {
    const SatLit lit = literals[i];
    if (i + 1 < literals.size() && literals[i + 1] == lit_negate(lit))
      return true;  // tautology
    const LBool val = value(lit);
    if (val == LBool::kTrue && level_[lit_var(lit)] == 0) return true;
    if (val == LBool::kFalse && level_[lit_var(lit)] == 0) continue;
    kept.push_back(lit);
  }

  if (kept.empty()) {
    unsat_ = true;
    return false;
  }
  if (kept.size() == 1) {
    if (value(kept[0]) == LBool::kFalse) {
      unsat_ = true;
      return false;
    }
    if (value(kept[0]) == LBool::kUndef) {
      enqueue(kept[0], -1);
      if (propagate() != -1) {
        unsat_ = true;
        return false;
      }
    }
    return true;
  }
  clauses_.push_back(Clause{std::move(kept), false});
  attach(static_cast<std::int32_t>(clauses_.size() - 1));
  return true;
}

void SatSolver::attach(std::int32_t clause_index) {
  const Clause& clause = clauses_[static_cast<std::size_t>(clause_index)];
  watches_[clause.literals[0]].push_back(clause_index);
  watches_[clause.literals[1]].push_back(clause_index);
}

void SatSolver::enqueue(SatLit lit, std::int32_t reason) {
  const SatVar var = lit_var(lit);
  assigns_[var] = lit_negative(lit) ? LBool::kFalse : LBool::kTrue;
  level_[var] = static_cast<std::uint32_t>(trail_limits_.size());
  reason_[var] = reason;
  trail_.push_back(lit);
}

std::int32_t SatSolver::propagate() {
  while (propagate_head_ < trail_.size()) {
    const SatLit p = trail_[propagate_head_++];
    ++stats_propagations_;
    // Clauses watching ~p just lost that watch.
    const SatLit false_lit = lit_negate(p);
    auto& watch_list = watches_[false_lit];
    std::size_t keep = 0;
    for (std::size_t i = 0; i < watch_list.size(); ++i) {
      const std::int32_t clause_index = watch_list[i];
      Clause& clause = clauses_[static_cast<std::size_t>(clause_index)];
      auto& lits = clause.literals;
      // Ensure the false watch sits at position 1.
      if (lits[0] == false_lit) std::swap(lits[0], lits[1]);
      if (value(lits[0]) == LBool::kTrue) {
        watch_list[keep++] = clause_index;  // clause satisfied
        continue;
      }
      // Look for a replacement watch.
      bool moved = false;
      for (std::size_t j = 2; j < lits.size(); ++j) {
        if (value(lits[j]) != LBool::kFalse) {
          std::swap(lits[1], lits[j]);
          watches_[lits[1]].push_back(clause_index);
          moved = true;
          break;
        }
      }
      if (moved) continue;
      // Unit or conflicting.
      watch_list[keep++] = clause_index;
      if (value(lits[0]) == LBool::kFalse) {
        // Conflict: keep the remaining watches intact.
        for (std::size_t j = i + 1; j < watch_list.size(); ++j)
          watch_list[keep++] = watch_list[j];
        watch_list.resize(keep);
        propagate_head_ = trail_.size();
        return clause_index;
      }
      enqueue(lits[0], clause_index);
    }
    watch_list.resize(keep);
  }
  return -1;
}

void SatSolver::bump(SatVar var) {
  activity_[var] += activity_increment_;
  if (activity_[var] > 1e100) {
    for (double& a : activity_) a *= 1e-100;
    activity_increment_ *= 1e-100;
  }
}

void SatSolver::decay() { activity_increment_ /= 0.95; }

void SatSolver::analyze(std::int32_t conflict, std::vector<SatLit>& learnt,
                        std::uint32_t& backjump_level) {
  learnt.clear();
  learnt.push_back(0);  // placeholder for the asserting literal
  const std::uint32_t current_level =
      static_cast<std::uint32_t>(trail_limits_.size());
  int counter = 0;
  SatLit p = 0;
  bool have_p = false;
  std::size_t index = trail_.size();
  std::vector<SatVar> touched;

  std::int32_t reason_index = conflict;
  for (;;) {
    const Clause& reason_clause =
        clauses_[static_cast<std::size_t>(reason_index)];
    for (const SatLit q : reason_clause.literals) {
      if (have_p && q == p) continue;
      const SatVar v = lit_var(q);
      if (seen_[v] || level_[v] == 0) continue;
      seen_[v] = true;
      touched.push_back(v);
      bump(v);
      if (level_[v] == current_level)
        ++counter;
      else
        learnt.push_back(q);
    }
    // Next literal to resolve on: most recent seen trail entry.
    while (!seen_[lit_var(trail_[index - 1])]) --index;
    --index;
    p = trail_[index];
    have_p = true;
    seen_[lit_var(p)] = false;
    --counter;
    if (counter == 0) break;
    reason_index = reason_[lit_var(p)];
  }
  learnt[0] = lit_negate(p);

  // Backjump level: highest level among the other literals.
  backjump_level = 0;
  std::size_t max_position = 1;
  for (std::size_t i = 1; i < learnt.size(); ++i) {
    const std::uint32_t lvl = level_[lit_var(learnt[i])];
    if (lvl > backjump_level) {
      backjump_level = lvl;
      max_position = i;
    }
  }
  if (learnt.size() > 1) std::swap(learnt[1], learnt[max_position]);
  for (const SatVar v : touched) seen_[v] = false;
}

void SatSolver::backtrack(std::uint32_t target_level) {
  if (trail_limits_.size() <= target_level) return;
  const std::size_t limit = trail_limits_[target_level];
  for (std::size_t i = trail_.size(); i-- > limit;) {
    const SatVar var = lit_var(trail_[i]);
    phase_[var] = assigns_[var] == LBool::kTrue;
    assigns_[var] = LBool::kUndef;
    reason_[var] = -1;
  }
  trail_.resize(limit);
  trail_limits_.resize(target_level);
  propagate_head_ = trail_.size();
}

SatLit SatSolver::pick_branch() {
  double best = -1.0;
  SatVar best_var = 0;
  bool found = false;
  for (SatVar v = 0; v < assigns_.size(); ++v) {
    if (assigns_[v] != LBool::kUndef) continue;
    if (!found || activity_[v] > best) {
      best = activity_[v];
      best_var = v;
      found = true;
    }
  }
  if (!found) return 0;  // caller checks for full assignment separately
  return mk_lit(best_var, !phase_[best_var]);
}

SatResult SatSolver::solve(const std::vector<SatLit>& assumptions,
                           std::uint64_t max_conflicts) {
  last_abort_reason_ = AbortReason::kNone;
  if (unsat_) return SatResult::kUnsat;
  backtrack(0);
  if (propagate() != -1) {
    unsat_ = true;
    return SatResult::kUnsat;
  }

  std::uint64_t conflicts_this_call = 0;
  std::uint64_t restart_limit = 128;
  std::uint64_t conflicts_since_restart = 0;
  std::vector<SatLit> learnt;

  for (;;) {
    const std::int32_t conflict = propagate();
    if (conflict != -1) {
      ++stats_conflicts_;
      ++conflicts_this_call;
      ++conflicts_since_restart;
      if (trail_limits_.empty()) {
        unsat_ = true;
        return SatResult::kUnsat;
      }
      std::uint32_t backjump_level = 0;
      analyze(conflict, learnt, backjump_level);
      // Never jump back into the middle of the assumption prefix with a
      // learnt unit that might be wrong under other assumptions — the
      // learnt clause itself is globally valid, so plain backjumping is
      // sound; assumptions are re-placed lazily below.
      backtrack(backjump_level);
      if (learnt.size() == 1) {
        if (value(learnt[0]) == LBool::kFalse) {
          unsat_ = true;
          return SatResult::kUnsat;
        }
        if (value(learnt[0]) == LBool::kUndef) enqueue(learnt[0], -1);
      } else {
        clauses_.push_back(Clause{learnt, true});
        const auto index = static_cast<std::int32_t>(clauses_.size() - 1);
        attach(index);
        enqueue(learnt[0], index);
        if (guard_ != nullptr) {
          const std::uint64_t bytes =
              learnt.size() * sizeof(SatLit) + sizeof(Clause);
          guard_->add_memory(bytes);
          guard_bytes_ += bytes;
        }
      }
      decay();
      if (max_conflicts != 0 && conflicts_this_call >= max_conflicts) {
        backtrack(0);
        last_abort_reason_ = AbortReason::kWorkBudget;
        return SatResult::kUnknown;
      }
      if (guard_ != nullptr && !guard_->check()) {
        backtrack(0);
        last_abort_reason_ = guard_->reason();
        return SatResult::kUnknown;
      }
      if (conflicts_since_restart >= restart_limit) {
        conflicts_since_restart = 0;
        restart_limit += restart_limit / 2;
        backtrack(0);
      }
      continue;
    }

    // Place pending assumptions, one decision level each.
    if (trail_limits_.size() < assumptions.size()) {
      const SatLit assumption = assumptions[trail_limits_.size()];
      if (value(assumption) == LBool::kFalse) {
        backtrack(0);
        return SatResult::kUnsat;  // conflicting assumptions
      }
      trail_limits_.push_back(trail_.size());
      if (value(assumption) == LBool::kUndef) enqueue(assumption, -1);
      continue;
    }

    // Decide.
    bool all_assigned = true;
    for (SatVar v = 0; v < assigns_.size(); ++v) {
      if (assigns_[v] == LBool::kUndef) {
        all_assigned = false;
        break;
      }
    }
    if (all_assigned) {
      model_.assign(assigns_.size(), false);
      for (SatVar v = 0; v < assigns_.size(); ++v)
        model_[v] = assigns_[v] == LBool::kTrue;
      backtrack(0);
      return SatResult::kSat;
    }
    ++stats_decisions_;
    trail_limits_.push_back(trail_.size());
    enqueue(pick_branch(), -1);
  }
}

}  // namespace rd
