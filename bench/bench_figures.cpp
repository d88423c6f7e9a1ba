// Reproduces the paper's figures.
//
//   Fig. 1: the three stabilizing systems for v = 111 in the running
//           example.
//   Fig. 2: a complete stabilizing assignment keeping 6 of 8 logical
//           paths, one of which (the dashed b-path) is not robustly
//           testable -> fault coverage 5/6.
//   Fig. 3: the hierarchy T(C) ⊆ LP(σ^π) ⊆ FS(C), checked empirically
//           on the example, c17 and ISCAS stand-ins.
//   Fig. 4: the better choice for input 000 -> optimal assignment with
//           5 logical paths, all robustly testable -> 100% coverage.
//   Fig. 5: the input sort realizing that optimum — found here by
//           Heuristic 2.
#include <cstdio>

#include "atpg/robust.h"
#include "bench_common.h"
#include "core/classify.h"
#include "core/exact.h"
#include "core/heuristics.h"
#include "core/stabilize.h"
#include "gen/examples.h"
#include "gen/iscas_like.h"
#include "sim/logic_sim.h"
#include "util/table.h"

namespace {

using namespace rd;

std::string system_to_string(const Circuit& circuit,
                             const StabilizingSystem& system) {
  std::string text = "{";
  for (std::size_t i = 0; i < system.leads.size(); ++i) {
    const Lead& lead = circuit.lead(system.leads[i]);
    if (i != 0) text += ", ";
    text += circuit.gate(lead.driver).name;
    text += "->";
    text += circuit.gate(lead.sink).name;
  }
  text += "}";
  return text;
}

LogicalPath path_from_key(const std::vector<std::uint32_t>& key) {
  LogicalPath path;
  path.path.leads.assign(key.begin(), key.end() - 1);
  path.final_pi_value = key.back() != 0;
  return path;
}

void figures_1_2_4_5() {
  const Circuit circuit = paper_example_circuit();

  std::printf("Figure 1 -- stabilizing systems for v = 111\n");
  const auto values111 = simulate(circuit, {true, true, true});
  const auto systems = all_stabilizing_systems(circuit, circuit.outputs()[0],
                                               values111, 16);
  std::printf("  %zu systems (paper shows three):\n", systems.size());
  for (const auto& system : systems)
    std::printf("    %s\n", system_to_string(circuit, system).c_str());

  std::printf("\nFigure 2 -- a complete stabilizing assignment with 6 paths\n");
  LogicalPathSet figure2;
  for (std::uint64_t minterm = 0; minterm < 8; ++minterm) {
    std::vector<bool> inputs(3);
    for (int i = 0; i < 3; ++i) inputs[i] = (minterm >> i) & 1;
    const auto values = simulate(circuit, inputs);
    const bool is_000 = minterm == 0;
    const auto system = compute_stabilizing_system(
        circuit, circuit.outputs()[0], values,
        [&](GateId gate, const std::vector<LeadId>& candidates) {
          if (is_000 && circuit.gate(gate).name == "g1")
            return candidates.front();  // the suboptimal b-side choice
          return candidates.back();
        });
    for (const auto& path : logical_paths_of_system(circuit, system, values))
      figure2.insert(path.key());
  }
  std::size_t robust = 0;
  for (const auto& key : figure2) {
    const LogicalPath path = path_from_key(key);
    const bool testable =
        search_robust_test(circuit, path).verdict == AtpgVerdict::kTestable;
    robust += testable;
    std::printf("    %-28s %s\n", path_to_string(circuit, path).c_str(),
                testable ? "robustly testable" : "NOT robustly testable");
  }
  std::printf("  |LP(sigma)| = %zu, robust coverage %zu/%zu (paper: 5/6)\n",
              figure2.size(), robust, figure2.size());

  std::printf(
      "\nFigures 4 & 5 -- the optimal assignment, via Heuristic 2's sort\n");
  ClassifyOptions collect;
  collect.collect_paths_limit = 64;
  const RdIdentification heu2 = identify_rd_heuristic2(circuit, collect);
  std::size_t optimal_robust = 0;
  for (const auto& key : heu2.classify.kept_keys) {
    const LogicalPath path = path_from_key(key);
    const bool testable =
        search_robust_test(circuit, path).verdict == AtpgVerdict::kTestable;
    optimal_robust += testable;
    std::printf("    %-28s %s\n", path_to_string(circuit, path).c_str(),
                testable ? "robustly testable" : "NOT robustly testable");
  }
  const auto optimum = exact_min_lp_sigma(circuit);
  std::printf(
      "  |LP(sigma^pi)| = %llu (exact optimum %zu), coverage %zu/%llu "
      "(paper: 5 paths, 100%%)\n",
      static_cast<unsigned long long>(heu2.classify.kept_paths),
      optimum.value_or(0), optimal_robust,
      static_cast<unsigned long long>(heu2.classify.kept_paths));
}

void figure_3(const rd::bench::Options& options,
              rd::bench::BenchReport& report) {
  std::printf(
      "\nFigure 3 -- hierarchy of logical path sets: T(C) <= LP(sigma^pi) <= "
      "FS(C)\n(kept-path counts per criterion; containment is checked "
      "path-wise in the test suite)\n\n");
  TextTable table({"circuit", "|T^sup(C)|", "|LP^sup(sigma^pi)|",
                   "|FS^sup(C)|", "total logical"});
  std::vector<std::string> names{"example", "c17", "c432", "c499", "c880"};
  for (const std::string& name : names) {
    if (!options.selected(name) && name != "example" && name != "c17")
      continue;
    const Circuit circuit = name == "example" ? paper_example_circuit()
                            : name == "c17"   ? c17()
                                              : make_benchmark(name);
    ClassifyOptions base;
    base.work_limit = options.work_limit;

    base.criterion = Criterion::kNonRobust;
    const ClassifyResult t_run = classify_paths(circuit, base);

    const InputSort sort = heuristic1_sort(circuit);
    base.criterion = Criterion::kInputSort;
    base.sort = &sort;
    const ClassifyResult lp_run = classify_paths(circuit, base);

    base.criterion = Criterion::kFunctionalSensitizable;
    base.sort = nullptr;
    const ClassifyResult fs_run = classify_paths(circuit, base);

    table.add_row({name, std::to_string(t_run.kept_paths),
                   std::to_string(lp_run.kept_paths),
                   std::to_string(fs_run.kept_paths),
                   fs_run.total_logical.to_decimal_grouped()});
    if (report.enabled()) {
      JsonValue row = JsonValue::object();
      row.set("circuit", JsonValue::string(name));
      row.set("t_sup", JsonValue::number(t_run.kept_paths));
      row.set("lp_sup", JsonValue::number(lp_run.kept_paths));
      row.set("fs_sup", JsonValue::number(fs_run.kept_paths));
      row.set("total_logical",
              JsonValue::number_token(fs_run.total_logical.to_decimal()));
      report.add_row(std::move(row));
    }
  }
  std::printf("%s", table.to_string().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const rd::bench::Options options = rd::bench::parse_options(argc, argv);
  rd::bench::BenchReport report(options, "figures");
  figures_1_2_4_5();
  figure_3(options, report);
  report.write();
  return 0;
}
