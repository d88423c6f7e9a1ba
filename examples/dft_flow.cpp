// A small design-for-test flow on a synthesized two-level benchmark
// (the Section VI discussion): identify the RD-set, generate robust
// tests for the surviving paths, report coverage, and list the paths
// that would need design-for-testability changes.  Also demonstrates
// the path-selection interplay the paper describes: when only paths
// above a length threshold are tested, the threshold should be applied
// to non-RD paths only.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "atpg/robust.h"
#include "core/heuristics.h"
#include "gen/pla_like.h"
#include "synth/synth.h"
#include "util/rng.h"

int main() {
  using namespace rd;

  // A compact synthesized multi-level circuit (PLA -> netlist).
  PlaProfile profile;
  profile.name = "dft_demo";
  profile.num_inputs = 10;
  profile.num_outputs = 6;
  profile.num_cubes = 40;
  profile.min_literals = 2;
  profile.max_literals = 6;
  profile.output_density = 0.30;
  profile.seed = 2025;
  const Circuit circuit = synthesize_multilevel(make_pla_like(profile));
  std::printf("synthesized circuit: %zu gates, %zu PIs, %zu POs\n",
              circuit.num_logic_gates(), circuit.inputs().size(),
              circuit.outputs().size());

  // RD identification with the kept paths recorded.
  ClassifyOptions options;
  options.collect_paths_limit = 1u << 20;
  Rng rng(7);
  const RdIdentification result =
      identify_rd_heuristic2(circuit, options, &rng);
  std::printf(
      "paths: %s logical, %llu must-test (%.2f%% robust dependent)\n",
      result.classify.total_logical.to_decimal_grouped().c_str(),
      static_cast<unsigned long long>(result.classify.kept_paths),
      result.classify.rd_percent);

  // Robust ATPG over the must-test set.
  std::size_t testable = 0;
  std::vector<LogicalPath> untestable;
  std::vector<std::size_t> kept_lengths;
  for (const auto& key : result.classify.kept_keys) {
    const LogicalPath path = LogicalPath::from_key(key);
    kept_lengths.push_back(path.path.leads.size());
    if (search_robust_test(circuit, path).verdict == AtpgVerdict::kTestable)
      ++testable;
    else
      untestable.push_back(std::move(path));
  }
  std::printf(
      "robust ATPG: %zu/%llu kept paths testable -> fault coverage %.1f%%\n",
      testable,
      static_cast<unsigned long long>(result.classify.kept_paths),
      100.0 * static_cast<double>(testable) /
          static_cast<double>(result.classify.kept_paths));
  std::printf("paths needing DFT modification: %zu\n", untestable.size());
  for (std::size_t i = 0; i < std::min<std::size_t>(untestable.size(), 5); ++i)
    std::printf("    %s\n",
                path_to_string(circuit, untestable[i]).c_str());

  // Threshold-based path selection (Section VI): test only paths whose
  // length is at least the median of the must-test set — applied to
  // the non-RD paths only, never to the full path list.
  std::sort(kept_lengths.begin(), kept_lengths.end());
  const std::size_t threshold =
      kept_lengths.empty() ? 0 : kept_lengths[kept_lengths.size() / 2];
  const std::size_t selected = static_cast<std::size_t>(std::count_if(
      kept_lengths.begin(), kept_lengths.end(),
      [threshold](std::size_t length) { return length >= threshold; }));
  std::printf(
      "threshold selection (length >= %zu): %zu of %zu must-test paths\n",
      threshold, selected, kept_lengths.size());
  return 0;
}
