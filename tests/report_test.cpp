// Tests for the path-classification report (the Figure 3 hierarchy as
// an API) — pinned exactly on the paper's example and checked for
// internal consistency on generated circuits.
#include <gtest/gtest.h>

#include "core/heuristics.h"
#include "core/report.h"
#include "gen/examples.h"
#include "gen/iscas_like.h"
#include "util/exec_guard.h"

namespace rd {
namespace {

TEST(Report, PaperExampleWithHeuristic2Sort) {
  const Circuit circuit = paper_example_circuit();
  const InputSort sort = heuristic2_sort(circuit);
  const PathClassReport report = classify_report(circuit, sort);
  // The optimal assignment: 5 kept, all robust; 3 RD (all of them FS,
  // none unsensitizable — the example's FUS share is zero).
  EXPECT_EQ(report.total_logical, 8u);
  EXPECT_EQ(report.robust, 5u);
  EXPECT_EQ(report.nonrobust_only, 0u);
  EXPECT_EQ(report.kept_only, 0u);
  EXPECT_EQ(report.fs_only, 3u);
  EXPECT_EQ(report.unsensitizable, 0u);
  EXPECT_EQ(report.kept_total, 5u);
  EXPECT_EQ(report.rd_total, 3u);
  EXPECT_DOUBLE_EQ(report.fault_coverage_percent, 100.0);
  EXPECT_TRUE(report.dft_candidates.empty());
}

TEST(Report, PaperExampleWithSuboptimalSort) {
  // The inverse of Heuristic 2's sort keeps the dashed path: coverage
  // drops below 100% and it shows up as a DFT candidate.
  const Circuit circuit = paper_example_circuit();
  const InputSort sort = heuristic2_sort(circuit).reversed();
  const PathClassReport report = classify_report(circuit, sort);
  EXPECT_GT(report.kept_total, 5u);
  EXPECT_GE(report.kept_only, 1u);
  EXPECT_LT(report.fault_coverage_percent, 100.0);
  EXPECT_FALSE(report.dft_candidates.empty());
  for (const LogicalPath& path : report.dft_candidates)
    EXPECT_TRUE(is_valid_path(circuit, path.path));
}

TEST(Report, BandsArePartition) {
  for (std::uint64_t seed = 55; seed <= 57; ++seed) {
    IscasProfile profile;
    profile.name = "rep";
    profile.num_inputs = 7;
    profile.num_outputs = 3;
    profile.num_gates = 26;
    profile.num_levels = 5;
    profile.xor_fraction = 0.15;
    profile.seed = seed;
    const Circuit circuit = make_iscas_like(profile);
    const InputSort sort = heuristic1_sort(circuit);
    const PathClassReport report = classify_report(circuit, sort);
    EXPECT_EQ(report.robust + report.nonrobust_only + report.kept_only +
                  report.fs_only + report.unsensitizable,
              report.total_logical)
        << seed;
    EXPECT_EQ(report.dft_candidates.size(), report.kept_only);
    EXPECT_GE(report.fault_coverage_percent, 0.0);
    EXPECT_LE(report.fault_coverage_percent, 100.0);
  }
}

TEST(Report, C17AllRobust) {
  const Circuit circuit = c17();
  const InputSort sort = InputSort::natural(circuit);
  const PathClassReport report = classify_report(circuit, sort);
  EXPECT_EQ(report.total_logical, 22u);
  EXPECT_EQ(report.robust, 22u);
  EXPECT_EQ(report.rd_total, 0u);
  EXPECT_DOUBLE_EQ(report.fault_coverage_percent, 100.0);
}

TEST(Report, RendersAllBands) {
  const Circuit circuit = paper_example_circuit();
  const PathClassReport report =
      classify_report(circuit, heuristic2_sort(circuit));
  const std::string text = report_to_string(report);
  EXPECT_NE(text.find("robustly testable          : 5"), std::string::npos);
  EXPECT_NE(text.find("fault coverage"), std::string::npos);
}

TEST(Report, ThrowsOnOversizedCircuit) {
  const Circuit circuit = make_benchmark("c432");
  ReportOptions options;
  options.max_paths = 64;  // way below c432-like's path count
  EXPECT_THROW(classify_report(circuit, heuristic1_sort(circuit), options),
               std::runtime_error);
}

TEST(Report, AtpgNodeBudgetBoundsTheRobustSearch) {
  // Every kept path of the paper example is robustly testable, so the
  // budget can only trip in the robust search.
  const Circuit circuit = paper_example_circuit();
  ReportOptions options;
  options.max_atpg_nodes = 0;
  try {
    classify_report(circuit, heuristic2_sort(circuit), options);
    FAIL() << "expected a typed abort";
  } catch (const GuardTrippedError& error) {
    EXPECT_EQ(error.reason(), AbortReason::kWorkBudget);
  }
}

}  // namespace
}  // namespace rd
