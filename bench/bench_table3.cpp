// Reproduces Table III: quality/time comparison of the leaf-dag
// baseline ([1], reimplemented in src/unfold) against Heuristic 2 on
// multi-level circuits synthesized from two-level covers (MCNC
// stand-ins, synthesized with src/synth's script.rugged surrogate).
//
// Expected shape: the baseline identifies slightly more RD paths
// (it searches the unrestricted stabilizing-assignment space), while
// Heuristic 2 is orders of magnitude faster; the paper's average
// quality gap is 2.05%.  "H2 exact" is the exact LP(σ^π) under the same
// Heuristic 2 sort (core/resilient.h), which splits the measured gap
// into the local-implication approximation (H2 → H2 exact) and the
// sort restriction (H2 exact → [1]).
#include <cstdio>

#include "bench_common.h"
#include "core/heuristics.h"
#include "core/resilient.h"
#include "gen/pla_like.h"
#include "paths/counting.h"
#include "synth/synth.h"
#include "unfold/redundancy.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace rd;
  using namespace rd::bench;
  Options options = parse_options(argc, argv);
  BenchReport report(options, "table3");
  if (options.quick && options.circuits.empty())
    options.circuits = {"Z5xp1", "bw"};

  std::printf(
      "Table III -- approach of [1] (leaf-dag) vs Heuristic 2 on synthesized\n"
      "two-level benchmarks (MCNC stand-ins)\n\n");

  TextTable table({"circuit", "logical paths", "[1] %RD", "[1] time",
                   "Heu2 %RD", "Heu2 time", "H2 exact %RD", "paper:[1]",
                   "paper:Heu2"});

  // Gap sums over the rows where [1] completed and H2 exact answered.
  double gap_sum = 0;
  double approx_gap_sum = 0;
  int gap_count = 0;
  for (const PaperTable3Row& paper : paper_table3()) {
    if (!options.selected(paper.circuit)) continue;
    PlaProfile profile;
    bool found = false;
    for (const PlaProfile& candidate : mcnc_profiles()) {
      if (candidate.name == paper.circuit) {
        profile = candidate;
        found = true;
      }
    }
    if (!found) continue;

    const Circuit circuit = synthesize_multilevel(make_pla_like(profile));
    const PathCounts counts(circuit);

    Stopwatch baseline_watch;
    const UnfoldResult baseline = identify_rd_unfold(circuit);
    const double baseline_seconds = baseline_watch.elapsed_seconds();

    ClassifyOptions base;
    base.work_limit = options.work_limit;
    Rng rng(2025);
    Stopwatch heu2_watch;
    const RdIdentification heu2 = identify_rd_heuristic2(circuit, base, &rng);
    const double heu2_seconds = heu2_watch.elapsed_seconds();

    // Exact LP(σ^π) under the same sort: the ladder's kept paths, each
    // refined by one SAT query.
    ResilientClassifyResult heu2_exact;
    const bool heu2_done = heu2.classify.completed;
    if (heu2_done) {
      ResilientOptions exact;
      exact.classify = base;
      exact.classify.criterion = Criterion::kInputSort;
      exact.classify.sort = &heu2.sort;
      heu2_exact = classify_resilient(circuit, exact);
    }
    const bool exact_answered =
        heu2_done && heu2_exact.engine == EngineRung::kExact;

    char baseline_cell[48];
    std::snprintf(baseline_cell, sizeof baseline_cell, "%.2f %%%s",
                  baseline.rd_percent, baseline.complete ? "" : " (partial)");
    table.add_row({paper.circuit, counts.total_logical().to_decimal_grouped(),
                   baseline_cell, format_duration(baseline_seconds),
                   heu2.classify.completed
                       ? format_percent(heu2.classify.rd_percent)
                       : "(aborted)",
                   format_duration(heu2_seconds),
                   exact_answered
                       ? format_percent(heu2_exact.classify.rd_percent)
                       : "(not exact)",
                   format_percent(paper.baseline_rd),
                   format_percent(paper.heu2_rd)});
    if (report.enabled()) {
      JsonValue row = JsonValue::object();
      row.set("circuit", JsonValue::string(paper.circuit));
      row.set("total_logical",
              JsonValue::number_token(counts.total_logical().to_decimal()));
      row.set("baseline_rd_percent", JsonValue::number(baseline.rd_percent));
      row.set("baseline_complete", JsonValue::boolean(baseline.complete));
      row.set("baseline_seconds", JsonValue::number(baseline_seconds));
      row.set("baseline_checks", JsonValue::number(baseline.redundancy_checks));
      row.set("baseline_kills",
              JsonValue::number(baseline.redundancies_removed));
      row.set("heu2_seconds", JsonValue::number(heu2_seconds));
      row.set("heu2", classify_result_json(heu2.classify));
      if (heu2_done) {
        JsonValue exact = classify_result_json(heu2_exact.classify);
        exact.set("resilient", resilient_json(heu2_exact));
        row.set("heu2_exact", std::move(exact));
      } else {
        row.set("heu2_exact", JsonValue::null());
      }
      report.add_row(std::move(row));
    }
    if (baseline.complete && exact_answered) {
      gap_sum += baseline.rd_percent - heu2.classify.rd_percent;
      approx_gap_sum +=
          heu2_exact.classify.rd_percent - heu2.classify.rd_percent;
      ++gap_count;
    }
    std::fprintf(stderr,
                 "[table3] %s done ([1] %.1fs, %llu checks, %llu kills; "
                 "Heu2 %.1fs)\n",
                 paper.circuit, baseline_seconds,
                 static_cast<unsigned long long>(baseline.redundancy_checks),
                 static_cast<unsigned long long>(
                     baseline.redundancies_removed),
                 heu2_seconds);
  }

  std::printf("%s\n", table.to_string().c_str());
  if (gap_count > 0)
    std::printf(
        "average quality gap ([1] minus Heu2): %.2f points (paper: 2.05\n"
        "across the MCNC set): %.2f from the local-implication approximation\n"
        "(H2 exact minus Heu2) and %.2f from the sort restriction ([1] minus\n"
        "H2 exact).\n",
        gap_sum / gap_count, approx_gap_sum / gap_count,
        (gap_sum - approx_gap_sum) / gap_count);
  report.write();
  return 0;
}
