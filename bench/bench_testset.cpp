// The practical payoff of RD identification (the motivation of the
// whole paper): compare the path-delay ATPG effort with and without
// the RD filter on circuits small enough to enumerate.
//
// Without RD identification, every logical path goes to the ATPG
// engines; with it, only LP^sup(sigma^pi) does.  Test counts, coverage
// and runtime are reported for both flows — coverage is identical by
// Theorem 1 (the skipped paths never needed tests), the effort is not.
#include <cstdio>
#include <vector>

#include "atpg/testset.h"
#include "bench_common.h"
#include "core/heuristics.h"
#include "gen/pla_like.h"
#include "paths/counting.h"
#include "synth/synth.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace {

using namespace rd;
using namespace rd::bench;

std::vector<LogicalPath> decode(const Circuit&,
                                const std::vector<std::vector<std::uint32_t>>&
                                    keys) {
  std::vector<LogicalPath> paths;
  paths.reserve(keys.size());
  for (const auto& key : keys) paths.push_back(LogicalPath::from_key(key));
  return paths;
}

std::vector<LogicalPath> every_logical_path(const Circuit& circuit,
                                            std::uint64_t cap) {
  std::vector<LogicalPath> paths;
  enumerate_paths(
      circuit,
      [&](const PhysicalPath& physical) {
        paths.push_back(LogicalPath{physical, false});
        paths.push_back(LogicalPath{physical, true});
      },
      cap);
  return paths;
}

}  // namespace

int main(int argc, char** argv) {
  Options options = parse_options(argc, argv);
  BenchReport report(options, "testset");

  std::printf(
      "ATPG effort with vs without RD identification\n"
      "(small synthesized circuits; every path enumerable)\n\n");
  TextTable table({"circuit", "paths", "must-test", "tests (all)",
                   "tests (RD-filtered)", "ATPG time (all)",
                   "ATPG time (filtered)", "robust cov."});

  std::vector<PlaProfile> profiles;
  for (std::uint64_t seed = 1; seed <= (options.quick ? 2u : 4u); ++seed) {
    PlaProfile profile;
    profile.name = "ts" + std::to_string(seed);
    profile.num_inputs = 10;
    profile.num_outputs = 6;
    profile.num_cubes = 36 + 8 * seed;
    profile.min_literals = 2;
    profile.max_literals = 6;
    profile.output_density = 0.3;
    profile.seed = 900 + seed;
    profiles.push_back(std::move(profile));
  }

  for (const PlaProfile& profile : profiles) {
    const Circuit circuit = synthesize_multilevel(make_pla_like(profile));
    const auto all_paths = every_logical_path(circuit, 1u << 22);

    Stopwatch all_watch;
    const GeneratedTestSet all_set = generate_test_set(circuit, all_paths);
    const double all_seconds = all_watch.elapsed_seconds();

    ClassifyOptions collect;
    collect.collect_paths_limit = 1u << 22;
    Rng rng(1);
    Stopwatch filtered_watch;
    const RdIdentification rd =
        identify_rd_heuristic2(circuit, collect, &rng);
    const auto kept = decode(circuit, rd.classify.kept_keys);
    const GeneratedTestSet filtered_set = generate_test_set(circuit, kept);
    const double filtered_seconds = filtered_watch.elapsed_seconds();

    char coverage[32];
    std::snprintf(coverage, sizeof coverage, "%.1f %%",
                  100.0 *
                      static_cast<double>(filtered_set.robust_count) /
                      static_cast<double>(kept.empty() ? 1 : kept.size()));
    table.add_row({profile.name, std::to_string(all_paths.size()),
                   std::to_string(kept.size()),
                   std::to_string(all_set.tests.size()),
                   std::to_string(filtered_set.tests.size()),
                   format_duration(all_seconds),
                   format_duration(filtered_seconds), coverage});
    if (report.enabled()) {
      JsonValue row = JsonValue::object();
      row.set("circuit", JsonValue::string(profile.name));
      row.set("paths", JsonValue::number(
                           static_cast<std::uint64_t>(all_paths.size())));
      row.set("must_test",
              JsonValue::number(static_cast<std::uint64_t>(kept.size())));
      row.set("tests_all", JsonValue::number(static_cast<std::uint64_t>(
                               all_set.tests.size())));
      row.set("tests_filtered",
              JsonValue::number(
                  static_cast<std::uint64_t>(filtered_set.tests.size())));
      row.set("atpg_all_seconds", JsonValue::number(all_seconds));
      row.set("atpg_filtered_seconds", JsonValue::number(filtered_seconds));
      row.set("robust_nodes", JsonValue::number(filtered_set.robust_nodes));
      row.set("nonrobust_nodes",
              JsonValue::number(filtered_set.nonrobust_nodes));
      report.add_row(std::move(row));
    }
    std::fprintf(stderr, "[testset] %s done (all %.1fs, filtered %.1fs)\n",
                 profile.name.c_str(), all_seconds, filtered_seconds);
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "the filtered flow generates tests only for LP^sup(sigma^pi); by\n"
      "Theorem 1 the skipped paths never required testing, so the robust\n"
      "coverage of the *relevant* fault set is what the last column "
      "shows.\n");
  report.write();
  return 0;
}
