// A narrated walk through the leaf-dag baseline ([1]) on the textbook
// consensus circuit y = ab + a'c + bc: why only the *rising* paths
// through the consensus term bc are robust dependent, how one SAT
// query per kill proves it, and how the result compares with the
// exhaustive optimum and the paper's fast heuristic.
#include <cstdio>

#include "core/exact.h"
#include "core/heuristics.h"
#include "gen/examples.h"
#include "paths/counting.h"
#include "unfold/redundancy.h"
#include "unfold/xfault.h"
#include "util/rng.h"

int main() {
  using namespace rd;

  Circuit circuit;
  const GateId a = circuit.add_input("a");
  const GateId b = circuit.add_input("b");
  const GateId c = circuit.add_input("c");
  const GateId na = circuit.add_gate(GateType::kNot, "na", {a});
  const GateId t1 = circuit.add_gate(GateType::kAnd, "t1", {a, b});
  const GateId t2 = circuit.add_gate(GateType::kAnd, "t2", {na, c});
  const GateId t3 = circuit.add_gate(GateType::kAnd, "t3", {b, c});
  const GateId org = circuit.add_gate(GateType::kOr, "or", {t1, t2, t3});
  circuit.add_output("y", org);
  circuit.finalize();

  const PathCounts counts(circuit);
  std::printf(
      "consensus circuit y = ab + a'c + bc: %s logical paths\n"
      "(the bc term is functionally redundant -- the classic test case)\n\n",
      counts.total_logical().to_decimal_grouped().c_str());

  // Hand-run two kill-set queries (one SAT query each) to show the
  // asymmetry the baseline must respect.
  const LeadId t3_to_or = circuit.gate(org).fanin_leads[2];
  {
    KillSet kills(circuit.num_leads());
    kills.kill(t3_to_or, true);  // rising paths through bc
    std::printf("kill (t3->or carrying 1): %s\n",
                kill_set_testable(circuit, kills) == KillVerdict::kRedundant
                    ? "REDUNDANT -- those paths are robust dependent"
                    : "testable");
  }
  {
    KillSet kills(circuit.num_leads());
    kills.kill(t3_to_or, false);  // falling paths through bc
    std::printf(
        "kill (t3->or carrying 0): %s\n",
        kill_set_testable(circuit, kills) == KillVerdict::kTestable
            ? "TESTABLE -- the OR gate's settling to 0 needs t3; keep them"
            : "redundant");
  }

  // The full baseline (no guard: it runs to completion) and the two
  // reference points.
  const UnfoldResult baseline = identify_rd_unfold(circuit);
  const auto optimum = exact_min_lp_sigma(circuit);
  Rng rng(1);
  const auto heu2 = identify_rd_heuristic2(circuit, {}, &rng);

  std::printf(
      "\nbaseline: SAT queries %llu, accepted kills %llu\n",
      static_cast<unsigned long long>(baseline.redundancy_checks),
      static_cast<unsigned long long>(baseline.redundancies_removed));
  std::printf(
      "\nmust-test paths:\n"
      "  leaf-dag baseline [1]    : %s\n"
      "  exhaustive optimum       : %zu\n"
      "  Heuristic 2 (this paper) : %llu\n",
      baseline.must_test_logical.to_decimal_grouped().c_str(),
      optimum.value_or(0),
      static_cast<unsigned long long>(heu2.classify.kept_paths));
  std::printf(
      "\nthe baseline reaches the optimum here; the sort-restricted\n"
      "heuristic trades a little quality for orders of magnitude in\n"
      "speed on real-size circuits (Table III).\n");
  return 0;
}
