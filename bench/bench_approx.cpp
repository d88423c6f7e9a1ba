// Approximation-quality study: the paper's Algorithm 2 computes a
// *superset* LP^sup (FS^sup, T^sup) using only local implications and
// claims "the quality of the approximation is very good".  With the
// BDD engine the exact sets are computable on mid-size circuits, so
// the overestimate can be measured directly:
//
//     overestimate % = 100 * (|X^sup| - |X|) / |X|
//
// for X in {FS, T, LP(sigma^pi)} — the empirical backing for Section
// IV's accuracy discussion.
#include <cstdio>

#include "bdd/bdd_circuit.h"
#include "bench_common.h"
#include "core/heuristics.h"
#include "gen/examples.h"
#include "gen/iscas_like.h"
#include "gen/pla_like.h"
#include "synth/synth.h"
#include "util/table.h"

namespace {

using namespace rd;
using namespace rd::bench;

struct Row {
  std::string name;
  Circuit circuit;
};

std::string quality_cell(std::uint64_t approx,
                         std::optional<std::uint64_t> exact) {
  if (!exact.has_value()) return "(bdd limit)";
  if (*exact == 0) return approx == 0 ? "exact" : "inf";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%llu vs %llu (%+.2f%%)",
                static_cast<unsigned long long>(approx),
                static_cast<unsigned long long>(*exact),
                100.0 *
                    (static_cast<double>(approx) -
                     static_cast<double>(*exact)) /
                    static_cast<double>(*exact));
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  Options options = parse_options(argc, argv);
  BenchReport report(options, "approx");

  std::vector<Row> rows;
  rows.push_back(Row{"example", paper_example_circuit()});
  rows.push_back(Row{"c17", c17()});
  for (const char* name : {"c432", "c880"}) {
    if (options.quick) break;
    rows.push_back(Row{name, make_benchmark(name)});
  }
  {
    PlaProfile profile;
    profile.name = "mcnc-like";
    profile.num_inputs = 12;
    profile.num_outputs = 8;
    profile.num_cubes = 60;
    profile.min_literals = 2;
    profile.max_literals = 6;
    profile.seed = 3;
    rows.push_back(Row{"mcnc-like",
                       synthesize_multilevel(make_pla_like(profile))});
  }

  std::printf(
      "Approximation quality of the local-implication classifier\n"
      "(kept-path counts: superset approximation vs BDD-exact)\n\n");
  TextTable table({"circuit", "FS: sup vs exact", "T: sup vs exact",
                   "LP(sigma^pi): sup vs exact"});
  // X^sup ⊇ X, so a superset count below its exact count is a
  // soundness violation: name it and exit 1.
  bool unsound = false;
  for (const Row& row : rows) {
    const Circuit& circuit = row.circuit;
    const InputSort sort = heuristic1_sort(circuit);

    ClassifyOptions base;
    base.work_limit = options.work_limit;

    base.criterion = Criterion::kFunctionalSensitizable;
    const auto fs_sup = classify_paths(circuit, base).kept_paths;
    base.criterion = Criterion::kNonRobust;
    const auto nr_sup = classify_paths(circuit, base).kept_paths;
    base.criterion = Criterion::kInputSort;
    base.sort = &sort;
    const auto lp_sup = classify_paths(circuit, base).kept_paths;

    const auto fs_exact =
        bdd_exact_kept_count(circuit, Criterion::kFunctionalSensitizable);
    const auto nr_exact = bdd_exact_kept_count(circuit, Criterion::kNonRobust);
    const auto lp_exact =
        bdd_exact_kept_count(circuit, Criterion::kInputSort, &sort);

    const auto cell = [&](const char* set, std::uint64_t sup,
                          std::optional<std::uint64_t> exact) {
      if (exact.has_value() && sup < *exact) {
        std::fprintf(stderr,
                     "[approx] %s: %s superset %llu is below its exact "
                     "count %llu\n",
                     row.name.c_str(), set,
                     static_cast<unsigned long long>(sup),
                     static_cast<unsigned long long>(*exact));
        unsound = true;
      }
      return quality_cell(sup, exact);
    };
    table.add_row({row.name, cell("FS", fs_sup, fs_exact),
                   cell("T", nr_sup, nr_exact),
                   cell("LP(sigma^pi)", lp_sup, lp_exact)});
    if (report.enabled()) {
      auto exact_json = [](std::optional<std::uint64_t> exact) {
        return exact.has_value() ? JsonValue::number(*exact)
                                 : JsonValue::null();
      };
      JsonValue json_row = JsonValue::object();
      json_row.set("circuit", JsonValue::string(row.name));
      json_row.set("fs_sup", JsonValue::number(fs_sup));
      json_row.set("fs_exact", exact_json(fs_exact));
      json_row.set("t_sup", JsonValue::number(nr_sup));
      json_row.set("t_exact", exact_json(nr_exact));
      json_row.set("lp_sup", JsonValue::number(lp_sup));
      json_row.set("lp_exact", exact_json(lp_exact));
      report.add_row(std::move(json_row));
    }
    std::fprintf(stderr, "[approx] %s done\n", row.name.c_str());
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "a small overestimate confirms the paper's Section IV claim that\n"
      "checking only local implications loses very little accuracy.\n");
  report.write();
  return unsound ? 1 : 0;
}
