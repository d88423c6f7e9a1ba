// Shared plumbing for the table/figure reproduction harnesses: CLI
// options (circuit subset, work limits, quick mode), paper reference
// values, and formatting helpers.
//
// Every harness prints (a) the table regenerated on the synthetic
// stand-in benchmarks and (b) the corresponding values published in
// the paper, so the *shape* comparison (who wins, by how much, where
// the orderings fall) is visible in one place.  See EXPERIMENTS.md.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "io/json_writer.h"
#include "io/run_report.h"
#include "util/stopwatch.h"
#include "util/strings.h"

namespace rd::bench {

/// Median wall seconds of `runs` timed invocations of `body`, after
/// one untimed warmup invocation (caches touched, pages faulted, lazy
/// singletons built).  Medians tame scheduler noise that single-shot
/// timings — and the speedup columns derived from them — amplify.
template <class Body>
double median_wall_seconds(int runs, const Body& body) {
  body();  // warmup
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(runs));
  for (int run = 0; run < runs; ++run) {
    Stopwatch watch;
    body();
    samples.push_back(watch.elapsed_seconds());
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Wall-time floor under which a serial/parallel wall-clock ratio is
/// reported as "n/a" (JSON null) instead of a number: below ~1ms the
/// measurement is dominated by pool spin-up and timer granularity, and
/// the old always-printed column reported nonsense like 0.37x on
/// microsecond runs.
inline constexpr double kSpeedupWallFloorSeconds = 1e-3;

struct Options {
  std::vector<std::string> circuits;  // empty = all
  std::uint64_t work_limit = 400'000'000;  // classifier extension steps
  std::size_t threads = 4;  // parallel-engine thread count (0 = hardware)
  bool quick = false;
  std::string json_path;  // --json=FILE: machine-readable run report

  bool selected(const std::string& name) const {
    if (circuits.empty()) return true;
    for (const auto& circuit : circuits)
      if (circuit == name) return true;
    return false;
  }
};

inline Options parse_options(int argc, char** argv) {
  Options options;
  try {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (starts_with(arg, "--circuits=")) {
      for (auto& name : split(arg.substr(11), ','))
        if (!name.empty()) options.circuits.push_back(std::move(name));
    } else if (starts_with(arg, "--work-limit=")) {
      options.work_limit = parse_uint64_strict(arg.substr(13), "--work-limit");
    } else if (starts_with(arg, "--threads=")) {
      options.threads = parse_size_strict(arg.substr(10), "--threads");
    } else if (starts_with(arg, "--json=")) {
      options.json_path = arg.substr(7);
    } else if (arg == "--quick") {
      options.quick = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: %s [--circuits=a,b,...] [--work-limit=N] [--threads=N] "
          "[--quick] [--json=FILE]\n"
          "  --circuits    restrict to a comma-separated benchmark subset\n"
          "  --work-limit  classifier step budget per run (default 4e8)\n"
          "  --threads     parallel-engine worker count (default 4, 0 = "
          "hardware)\n"
          "  --quick       small subset + reduced budgets (smoke run)\n"
          "  --json        also write a schema-versioned JSON run report\n",
          argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown option: %s (try --help)\n", arg.c_str());
      std::exit(2);
    }
  }
  } catch (const std::invalid_argument& error) {
    // Strict numeric parsing rejected a flag value; same usage-error
    // exit as an unknown flag.
    std::fprintf(stderr, "%s (try --help)\n", error.what());
    std::exit(2);
  }
  return options;
}

/// Accumulates one JSON row per table row and writes the report (kind
/// "bench", see io/run_report.h) on request.  A harness creates one,
/// calls add_row() as it prints each text row, and write()s before
/// exiting; when --json was not given everything is a no-op.
class BenchReport {
 public:
  BenchReport(const Options& options, std::string bench_name)
      : path_(options.json_path), name_(std::move(bench_name)) {}

  bool enabled() const { return !path_.empty(); }

  void add_row(JsonValue row) {
    if (enabled()) rows_.push_back(std::move(row));
  }

  /// Writes the report to the --json path; throws on I/O failure so a
  /// bench run with an unwritable path exits nonzero.
  void write() const {
    if (!enabled()) return;
    JsonValue report = bench_report(name_);
    JsonValue rows = JsonValue::array();
    for (const JsonValue& row : rows_) rows.append(row);
    report.set("rows", std::move(rows));
    write_json_file(path_, report);
    std::fprintf(stderr, "[%s] wrote %s\n", name_.c_str(), path_.c_str());
  }

 private:
  std::string path_;
  std::string name_;
  std::vector<JsonValue> rows_;
};

/// Reference values from the paper, for side-by-side printing.
struct PaperTable1Row {
  const char* circuit;
  double fus, heu1, heu2, heu2_inverse;
};

inline const std::vector<PaperTable1Row>& paper_table1() {
  static const std::vector<PaperTable1Row> rows = {
      {"c432", 64.25, 90.12, 91.12, 84.29},
      {"c499", 30.05, 39.50, 53.79, 30.05},
      {"c880", 0.94, 1.81, 3.20, 0.94},
      {"c1355", 81.19, 83.27, 86.70, 81.19},
      {"c1908", 32.79, 74.95, 75.09, 33.34},
      {"c2670", 77.26, 81.27, 82.42, 77.79},
      {"c3540", 72.16, 94.89, 94.99, 83.33},
      {"c5315", 78.05, 83.79, 83.80, 81.74},
      {"c7552", 68.78, 75.63, 76.70, 72.18},
  };
  return rows;
}

struct PaperTable2Row {
  const char* circuit;
  std::uint64_t logical_paths;
  const char* heu1_time;
  const char* heu2_time;
};

inline const std::vector<PaperTable2Row>& paper_table2() {
  static const std::vector<PaperTable2Row> rows = {
      {"c432", 583'652, "0:25", "1:27"},
      {"c499", 795'776, "1:12", "3:22"},
      {"c880", 17'284, "0:07", "0:14"},
      {"c1355", 8'346'432, "3:03", "9:17"},
      {"c1908", 1'458'114, "2:22", "12:10"},
      {"c2670", 1'359'920, "3:01", "9:53"},
      {"c3540", 57'353'342, "2:24:06", "14:29:38"},
      {"c5315", 2'682'610, "3:13", "10:31"},
      {"c7552", 1'452'988, "4:37", "15:07"},
  };
  return rows;
}

struct PaperTable3Row {
  const char* circuit;
  std::uint64_t logical_paths;
  double baseline_rd;  // approach of [1]
  const char* baseline_time;
  double heu2_rd;
  const char* heu2_time;
};

inline const std::vector<PaperTable3Row>& paper_table3() {
  static const std::vector<PaperTable3Row> rows = {
      {"apex1", 13'756, 8.52, "46:39", 7.89, "0:30"},
      {"Z5xp1", 20'102, 94.75, "3:44", 94.14, "0:05"},
      {"apex5", 23'836, 60.63, "16:15", 59.43, "0:18"},
      {"bw", 24'380, 91.37, "8:01", 89.68, "0:09"},
      {"apex3", 35'270, 71.53, "1:02:54", 70.95, "0:38"},
      {"misex3", 40'578, 67.25, "1:39:40", 63.78, "0:31"},
      {"seq", 52'886, 63.35, "3:59:35", 57.81, "0:42"},
      {"misex3c", 1'856'452, 99.53, "7:54:22", 99.29, "4:13"},
  };
  return rows;
}

}  // namespace rd::bench
