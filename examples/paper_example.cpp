// A guided tour of the paper's running example (Figures 1-5): the
// three-input circuit y = a + (bc + c), its stabilizing systems, a
// suboptimal and the optimal complete stabilizing assignment, and how
// Heuristic 2's input sort lands exactly on the optimum.
#include <cstdio>

#include "atpg/robust.h"
#include "core/exact.h"
#include "core/heuristics.h"
#include "core/stabilize.h"
#include "gen/examples.h"
#include "sim/logic_sim.h"

namespace {

using namespace rd;

void print_paths(const Circuit& circuit,
                 const std::vector<std::vector<std::uint32_t>>& keys) {
  for (const auto& key : keys) {
    const LogicalPath path = LogicalPath::from_key(key);
    std::printf("    %-28s %s\n", path_to_string(circuit, path).c_str(),
                search_robust_test(circuit, path).verdict ==
                        AtpgVerdict::kTestable
                    ? "robustly testable"
                    : "NOT robustly testable");
  }
}

}  // namespace

int main() {
  const Circuit circuit = paper_example_circuit();
  std::printf(
      "The paper's example circuit: y = a + (b*c + c)\n"
      "  g1 = AND(b, c); h = OR(g1, c); y = OR(a, h)\n"
      "  4 physical paths, 8 logical paths\n\n");

  // Figure 1: the choice points of Algorithm 1 under v = 111.
  const auto values = simulate(circuit, {true, true, true});
  const auto systems =
      all_stabilizing_systems(circuit, circuit.outputs()[0], values, 16);
  std::printf("Under v=111 Algorithm 1 can stabilize y=1 in %zu ways\n",
              systems.size());
  std::printf(
      "  (via PI a alone, via c through h, or via the whole of g1) --\n"
      "  which stabilizing system each vector gets is the optimization\n"
      "  problem of Section III.\n\n");

  // A complete stabilizing assignment fixes one choice per vector;
  // Theorem 1 says everything outside its logical paths is robust
  // dependent.  The exhaustive optimum:
  const auto optimum = exact_min_lp_sigma(circuit);
  std::printf("Exhaustive search over all assignments: min |LP(sigma)| = %zu\n",
              optimum.value_or(0));

  // Heuristic 2 finds it through the (FS \ T) cost function.
  ClassifyOptions options;
  options.collect_paths_limit = 16;
  const RdIdentification heu2 = identify_rd_heuristic2(circuit, options);
  std::printf(
      "Heuristic 2 keeps %llu paths (3 of 8 identified robust dependent):\n",
      static_cast<unsigned long long>(heu2.classify.kept_paths));
  print_paths(circuit, heu2.classify.kept_keys);
  std::printf(
      "\nAll kept paths are robustly testable: fault coverage 100%%, no\n"
      "design-for-testability modification needed (Example 3 of the "
      "paper).\n");
  return 0;
}
