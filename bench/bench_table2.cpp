// Reproduces Table II: total logical path counts and the running times
// of Heuristic 1 vs Heuristic 2 on the ISCAS-85 stand-ins, plus the
// c6288 note (the multiplier's > 1.9e20 logical paths make full
// classification infeasible; only the structural count is produced,
// exactly as the paper reports).
//
// Expected shape: Heu2 roughly 3x (or more) the cost of Heu1 — the
// classifier runs three times instead of once (Algorithm 3) — and both
// orders of magnitude below the leaf-dag baseline (Table III).
//
// The full run's JSON report is the committed golden file of the exact
// Table II gate (BENCH_table2.json, EXPERIMENTS.md): every non-timing
// field, including each run's prerun_work and sort_digest, must match
// it exactly.  The parallel Heu2 rerun must match the serial one on
// every deterministic field, or the bench exits 1 without a report.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/heuristics.h"
#include "gen/iscas_like.h"
#include "netlist/cone_signature.h"
#include "paths/counting.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace {

using namespace rd;

/// Hex FNV-1a 64 over every gate's pin ranks (gates in id order, each
/// rank as four little-endian bytes): a fingerprint of the whole sort.
std::string sort_digest(const Circuit& circuit, const InputSort& sort) {
  std::vector<std::uint8_t> bytes;
  for (GateId id = 0; id < circuit.num_gates(); ++id) {
    for (std::uint32_t pin = 0; pin < circuit.gate(id).fanins.size(); ++pin) {
      const std::uint32_t rank = sort.rank(id, pin);
      for (int shift = 0; shift < 32; shift += 8)
        bytes.push_back(static_cast<std::uint8_t>(rank >> shift));
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(cone_signature(bytes)));
  return hex;
}

JsonValue identification_json(const RdIdentification& rd,
                              const std::string& digest) {
  JsonValue out = classify_result_json(rd.classify);
  out.set("prerun_work", JsonValue::number(rd.prerun_work));
  out.set("sort_digest", JsonValue::string(digest));
  return out;
}

/// Comma-separated names of the deterministic fields on which two runs
/// differ; empty when they agree.
std::string differing_fields(const RdIdentification& a,
                             const std::string& a_digest,
                             const RdIdentification& b,
                             const std::string& b_digest) {
  std::string names;
  const auto check = [&](bool same, const char* name) {
    if (same) return;
    if (!names.empty()) names += ", ";
    names += name;
  };
  check(a.classify.completed == b.classify.completed, "completed");
  check(a.classify.kept_paths == b.classify.kept_paths, "kept_paths");
  check(a.classify.work == b.classify.work, "work");
  check(a.classify.implication == b.classify.implication, "implication");
  check(a.prerun_work == b.prerun_work, "prerun_work");
  check(a_digest == b_digest, "sort_digest");
  return names;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rd;
  using namespace rd::bench;
  Options options = parse_options(argc, argv);
  BenchReport report(options, "table2");
  if (options.quick && options.circuits.empty())
    options.circuits = {"c432", "c499", "c880", "c6288"};

  std::printf(
      "Table II -- path counts and running times for Heuristics 1 and 2\n"
      "(wall clock on this machine; the paper's SPARC-10 times are shown\n"
      " for shape comparison only; 'Heu2 par' reruns Heuristic 2 on the\n"
      " parallel engine with %zu worker threads -- identical sort and\n"
      " identical kept counts, serial vs parallel wall time)\n\n",
      options.threads);

  TextTable table({"circuit", "logical paths", "Heu1 time", "Heu2 time",
                   "Heu2 par", "par speedup", "Heu2/Heu1", "paper:paths",
                   "paper:Heu1", "paper:Heu2"});

  double ratio_sum = 0;
  int ratio_count = 0;
  bool serial_parallel_split = false;
  for (const PaperTable2Row& paper : paper_table2()) {
    if (!options.selected(paper.circuit)) continue;
    const Circuit circuit = make_benchmark(paper.circuit);
    const PathCounts counts(circuit);

    ClassifyOptions base;
    base.work_limit = options.work_limit;

    Stopwatch heu1_watch;
    Rng heu1_rng(2025);
    const RdIdentification heu1 =
        identify_rd_heuristic1(circuit, base, &heu1_rng);
    const double heu1_seconds = heu1_watch.elapsed_seconds();

    Stopwatch heu2_watch;
    Rng heu2_rng(2026);
    const RdIdentification heu2 =
        identify_rd_heuristic2(circuit, base, &heu2_rng);
    const double heu2_seconds = heu2_watch.elapsed_seconds();

    // Same seed, so the tie-breaks and hence the sort are identical;
    // only the engine differs.
    ClassifyOptions parallel_base = base;
    parallel_base.num_threads = options.threads;
    Stopwatch heu2_par_watch;
    Rng heu2_par_rng(2026);
    const RdIdentification heu2_par =
        identify_rd_heuristic2(circuit, parallel_base, &heu2_par_rng);
    const double heu2_par_seconds = heu2_par_watch.elapsed_seconds();

    const std::string heu1_digest = sort_digest(circuit, heu1.sort);
    const std::string heu2_digest = sort_digest(circuit, heu2.sort);
    const std::string heu2_par_digest = sort_digest(circuit, heu2_par.sort);
    const std::string split =
        differing_fields(heu2, heu2_digest, heu2_par, heu2_par_digest);
    if (!split.empty()) {
      std::fprintf(stderr,
                   "[table2] ERROR: %s parallel Heu2 differs from serial "
                   "in: %s\n",
                   paper.circuit, split.c_str());
      serial_parallel_split = true;
    }

    char ratio[32] = "-";
    if (heu1.classify.completed && heu2.classify.completed &&
        heu1_seconds > 0) {
      std::snprintf(ratio, sizeof ratio, "%.1fx", heu2_seconds / heu1_seconds);
      ratio_sum += heu2_seconds / heu1_seconds;
      ++ratio_count;
    }
    char par_speedup[32] = "-";
    if (heu2.classify.completed && heu2_par.classify.completed &&
        heu2_par_seconds > 0)
      std::snprintf(par_speedup, sizeof par_speedup, "%.2fx",
                    heu2_seconds / heu2_par_seconds);
    table.add_row(
        {paper.circuit, counts.total_logical().to_decimal_grouped(),
         heu1.classify.completed ? format_duration(heu1_seconds) : "(aborted)",
         heu2.classify.completed ? format_duration(heu2_seconds) : "(aborted)",
         heu2_par.classify.completed ? format_duration(heu2_par_seconds)
                                     : "(aborted)",
         par_speedup, ratio, BigUint(paper.logical_paths).to_decimal_grouped(),
         paper.heu1_time, paper.heu2_time});
    if (report.enabled()) {
      JsonValue row = JsonValue::object();
      row.set("circuit", JsonValue::string(paper.circuit));
      row.set("total_logical",
              JsonValue::number_token(counts.total_logical().to_decimal()));
      row.set("heu1_seconds", JsonValue::number(heu1_seconds));
      row.set("heu2_seconds", JsonValue::number(heu2_seconds));
      row.set("heu2_parallel_seconds", JsonValue::number(heu2_par_seconds));
      row.set("threads", JsonValue::number(
                             static_cast<std::uint64_t>(options.threads)));
      row.set("heu1", identification_json(heu1, heu1_digest));
      row.set("heu2", identification_json(heu2, heu2_digest));
      row.set("heu2_parallel", identification_json(heu2_par, heu2_par_digest));
      report.add_row(std::move(row));
    }
    std::fprintf(stderr,
                 "[table2] %s done (Heu1 %.1fs, Heu2 %.1fs, Heu2 par %.1fs)\n",
                 paper.circuit, heu1_seconds, heu2_seconds, heu2_par_seconds);
  }

  // The c6288 row: count only, like the paper ("could not be completed
  // ... more than 1.9e20 logical paths").
  if (options.selected("c6288")) {
    const Circuit multiplier = make_benchmark("c6288");
    const PathCounts counts(multiplier);
    table.add_row({"c6288", counts.total_logical().to_decimal_grouped(),
                   "(not run)", "(not run)", "(not run)", "-", "-",
                   "> 1.9e20 (not run)", "-", "-"});
    if (report.enabled()) {
      JsonValue row = JsonValue::object();
      row.set("circuit", JsonValue::string("c6288"));
      row.set("total_logical",
              JsonValue::number_token(counts.total_logical().to_decimal()));
      row.set("count_only", JsonValue::boolean(true));
      report.add_row(std::move(row));
    }
  }

  std::printf("%s\n", table.to_string().c_str());
  if (ratio_count > 0)
    std::printf(
        "average Heu2/Heu1 time ratio: %.1fx (paper reports a factor of 3 or\n"
        "more on most circuits: the classifier runs three times)\n",
        ratio_sum / ratio_count);
  if (serial_parallel_split) {
    std::fprintf(stderr,
                 "[table2] FAILED: a thread count changed a deterministic "
                 "field; no report written\n");
    return 1;
  }
  report.write();
  return 0;
}
