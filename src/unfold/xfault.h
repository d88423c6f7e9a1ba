// Kill-set consistency checking for the leaf-dag baseline.
//
// The approach of [1] identifies RD-sets with redundant *multiple*
// stuck-at faults in the leaf-dag.  The working representation here is
// a KillSet: per lead, which stable values w are "killed" — i.e. the
// logical paths carrying w across that lead are declared robust
// dependent.  A kill set is sound exactly when, for every input vector
// v, Algorithm 1 can still build a stabilizing system that avoids every
// lead whose value under v is killed; equivalently, when the output
// remains ternary-determined after injecting X on each killed lead
// whose fault-free value matches the killed polarity.
//
// KillCnf states the complement — some vector leaves a primary output
// ternary-undetermined — as one SAT instance over the circuit's Tseitin
// encoding (sat/cnf.h), with one assumption literal per killable
// (lead, value) pair, so the greedy loop of identify_rd_unfold asks one
// incremental query per candidate kill.  kill_set_testable() is the
// one-shot form.  count_alive_paths() provides the per-polarity path
// accounting: a logical path stays must-test iff every lead on it is
// alive for the value the path carries there.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/circuit.h"
#include "sat/cnf.h"
#include "sat/solver.h"
#include "util/biguint.h"
#include "util/exec_guard.h"

namespace rd {

/// Per-lead kill mask: bit 0 = value-0 paths killed, bit 1 = value-1.
class KillSet {
 public:
  explicit KillSet(std::size_t num_leads) : mask_(num_leads, 0) {}

  void kill(LeadId lead, bool value) {
    mask_[lead] |= static_cast<std::uint8_t>(value ? 2 : 1);
  }
  void revive(LeadId lead, bool value) {
    mask_[lead] &= static_cast<std::uint8_t>(value ? ~2 : ~1);
  }
  bool killed(LeadId lead, bool value) const {
    return (mask_[lead] & (value ? 2 : 1)) != 0;
  }
  bool any() const {
    for (std::uint8_t m : mask_)
      if (m != 0) return true;
    return false;
  }

 private:
  std::vector<std::uint8_t> mask_;
};

enum class KillVerdict : std::uint8_t {
  kTestable,    // some vector leaves a PO undetermined: kill set unsound
  kRedundant,   // proof: the kill set is a valid RD-set
  kAborted,     // conflict cap or guard stopped the query
};

/// Conflict cap of one kill query.
constexpr std::uint64_t kMaxKillConflicts = 100000;

/// "Some vector leaves a PO ternary-undetermined" as CNF.  On top of
/// the good machine (CircuitCnf) it adds one variable x_g per gate,
/// "the faulty value is X" (a faulty value that is not X equals the
/// good one), and one lx per lead, "the lead carries X":
///
///   lx -> x_driver  or  (kill(lead, w) and good(driver) = w)
///   x_g -> some lx_i, and x_g -> lx_i or good_i != controlling
///
/// at AND-like gates (x_g -> lx_0 at NOT/BUF/PO), x_pi is false, and
/// one clause asks some PO to be X.  The implications point one way
/// only, which is exact for the existence of an X output.  Killed pairs
/// are chosen by assumption literals.
class KillCnf {
 public:
  /// Encodes `circuit` into `solver`.  The pairs set in `killable` get
  /// a kill literal; every other pair is never killed.
  KillCnf(const Circuit& circuit, SatSolver& solver, const KillSet& killable);

  /// The literal "(lead, value) is killed"; only for killable pairs.
  SatLit kill_lit(LeadId lead, bool value) const {
    return mk_lit(kill_vars_[2 * lead + (value ? 1 : 0)]);
  }

  /// The good machine: the focus assumption (the driver of the newest
  /// kill carries its value) and counterexample vectors read it.
  const CircuitCnf& good() const { return good_; }

 private:
  CircuitCnf good_;
  std::vector<SatVar> kill_vars_;  // per (lead, value); killable only
};

/// One-shot check of a kill set: one SAT query on a fresh KillCnf,
/// capped at kMaxKillConflicts.  The guard, if any, is polled before
/// the query (one unit) and at every conflict.
///
/// `focus_lead`/`focus_value` restrict the query to input vectors that
/// *activate* that kill (drive the lead to the killed value).  This is
/// sound exactly when the kill set minus the focused pair is already
/// proven redundant: any counterexample to the grown set must then
/// involve the new X source.  The greedy loop in identify_rd_unfold
/// maintains that invariant.
KillVerdict kill_set_testable(const Circuit& circuit, const KillSet& kills,
                              LeadId focus_lead = kNullLead,
                              bool focus_value = false,
                              ExecGuard* guard = nullptr);

/// Per-polarity structural path accounting under a kill set.
struct AlivePathCounts {
  /// arrivals[gate][v]: partial paths from a PI to `gate` whose stable
  /// value at the gate output is v, using only alive (lead, value)
  /// pairs.
  std::vector<BigUint> arrivals0, arrivals1;
  std::vector<BigUint> departures0, departures1;
  BigUint total_alive_logical;

  const BigUint& arrivals(GateId id, bool value) const {
    return value ? arrivals1[id] : arrivals0[id];
  }
  const BigUint& departures(GateId id, bool value) const {
    return value ? departures1[id] : departures0[id];
  }

  /// Alive logical paths through `lead` carrying value `value` there
  /// (zero when that (lead, value) pair is itself killed).
  BigUint through(const Circuit& circuit, LeadId lead, bool value) const;

  /// Kill set the counts were computed under (set by count_alive_paths;
  /// must outlive this object).
  const KillSet* killed_ = nullptr;
};

AlivePathCounts count_alive_paths(const Circuit& circuit,
                                  const KillSet& kills);

}  // namespace rd
