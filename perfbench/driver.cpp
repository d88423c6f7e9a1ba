// End-to-end benchmark driver for rdfast.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--cache-dir DIR] [--self-test]
//
// Generates the workload's circuits from the seed, hands them to the
// library only as .bench text (read_bench_string), then runs one op per
// circuit in a closed loop with one client: the next op starts when the
// previous one finishes, pass after pass over the circuit list, until
// the time budget would be exceeded.  Each op calls the public entry
// points exactly as rdfast_cli does (fixed tie-break Rng(1)).  Every op
// is verified afterwards, outside the timed region, and the last line
// of stdout is one JSON object with the run's metrics.  perfbench/run.py
// builds this program and is the documented entry point;
// perfbench/README.md describes the workloads and metrics.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "atpg/path_fault_sim.h"
#include "atpg/testset.h"
#include "core/classify.h"
#include "core/heuristics.h"
#include "gen/iscas_like.h"
#include "gen/pla_like.h"
#include "io/bench_io.h"
#include "netlist/compiled.h"
#include "paths/counting.h"
#include "spans.h"
#include "synth/synth.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace {

using namespace rd;
using perfbench::ScopedSpan;
using perfbench::SpanRecorder;

// ---------------------------------------------------------------- workloads

enum class OpKind { kClassify, kAtpg };

struct Workload {
  const char* name;
  OpKind kind;
  int heuristic;
  std::size_t threads;
};

constexpr Workload kWorkloads[] = {
    {"classify-heu1-t1", OpKind::kClassify, 1, 1},
    {"classify-heu2-t4", OpKind::kClassify, 2, 4},
    // Classifying takes under 1% of an ATPG op, so its four threads add
    // no noise, but they run the parallel engine (two threads per
    // pre-run) and the pre-run pool split on every op.
    {"atpg-pla", OpKind::kAtpg, 2, 4},
};

// rdfast_cli atpg's default --max-paths.
constexpr std::uint64_t kAtpgPathLimit = 20000;

// Set-up is timed this many times before the first op and after every
// pass; setup_s is the median.
constexpr int kSetupRepeats = 5;

struct Input {
  std::string name;
  std::string text;  // .bench text: all the program under test receives
};

template <typename T>
void shuffle(std::vector<T>& items, Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i)
    std::swap(items[i - 1], items[rng.next_below(i)]);
}

/// A seeded isomorphic copy of a .bench netlist with every signal
/// renamed.  Every line keeps its place, so gates and leads keep their
/// ids, the input sorts' random tie-breaks fall exactly as on the
/// original, and the program does the same work on every seed.
std::string relabel_bench(const std::string& text, std::uint64_t seed) {
  std::vector<std::string> inputs, outputs;
  struct GateLine {
    std::string name, type;
    std::vector<std::string> fanins;
  };
  std::vector<GateLine> gates;
  std::istringstream in(text);
  std::string header, line;
  auto inside = [](const std::string& s) {
    const std::size_t open = s.find('(');
    return s.substr(open + 1, s.rfind(')') - open - 1);
  };
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      header = line;
    } else if (line.rfind("INPUT(", 0) == 0) {
      inputs.push_back(inside(line));
    } else if (line.rfind("OUTPUT(", 0) == 0) {
      outputs.push_back(inside(line));
    } else {
      GateLine gate;
      const std::size_t eq = line.find(" = ");
      gate.name = line.substr(0, eq);
      gate.type = line.substr(eq + 3, line.find('(') - eq - 3);
      std::istringstream args(inside(line));
      for (std::string arg; std::getline(args, arg, ',');)
        gate.fanins.push_back(arg.substr(arg.find_first_not_of(' ')));
      gates.push_back(std::move(gate));
    }
  }
  Rng rng(seed);
  std::vector<std::size_t> ids(inputs.size() + gates.size());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  shuffle(ids, rng);
  std::map<std::string, std::string> rename;
  for (std::size_t i = 0; i < inputs.size(); ++i)
    rename[inputs[i]] = "n" + std::to_string(ids[i]);
  for (std::size_t i = 0; i < gates.size(); ++i)
    rename[gates[i].name] = "n" + std::to_string(ids[inputs.size() + i]);

  std::string out = header + "\n";
  for (const std::string& name : inputs) out += "INPUT(" + rename.at(name) + ")\n";
  for (const std::string& name : outputs)
    out += "OUTPUT(" + rename.at(name) + ")\n";
  for (const GateLine& gate : gates) {
    out += rename.at(gate.name) + " = " + gate.type + "(";
    for (std::size_t i = 0; i < gate.fanins.size(); ++i)
      out += (i == 0 ? "" : ", ") + rename.at(gate.fanins[i]);
    out += ")\n";
  }
  return out;
}

/// Table II stand-ins (iscas85_profiles() minus c6288).  Seed 0 is the
/// canonical make_benchmark text, checked bit for bit; other seeds only
/// rename the signals.  The parallel engine queues its work items in PI
/// order, so shuffling the PIs would change how the subtrees fall on
/// the workers, and with it each seed's op times.
std::vector<Input> iscas_inputs(std::uint64_t seed) {
  std::vector<Input> inputs;
  for (const IscasProfile& profile : iscas85_profiles()) {
    if (profile.name == "c6288") continue;
    Input input{profile.name, write_bench_string(make_iscas_like(profile))};
    if (seed == 0 &&
        input.text != write_bench_string(make_benchmark(profile.name)))
      throw std::runtime_error("seed 0 does not reproduce make_benchmark(" +
                               profile.name + ")");
    if (seed != 0) input.text = relabel_bench(input.text, seed);
    inputs.push_back(std::move(input));
  }
  return inputs;
}

/// Small two-level covers in the style of bench_testset's ts* profiles,
/// synthesized to multi-level logic; sized so one ATPG op takes about a
/// second.  Other seeds only rename the signals: the robust generator
/// branches over PIs in declaration order, and reordering them moved
/// one op's time by up to 10x, far beyond any regression bound.
std::vector<Input> pla_inputs(std::uint64_t seed) {
  std::vector<Input> inputs;
  for (std::uint64_t k = 1; k <= 4; ++k) {
    PlaProfile profile;
    profile.name = "pb" + std::to_string(k);
    profile.num_inputs = 10;
    profile.num_outputs = 6;
    profile.num_cubes = 24 + 2 * k;
    profile.min_literals = 2;
    profile.max_literals = 6;
    profile.output_density = 0.3;
    profile.seed = 700 + k;
    Circuit circuit = synthesize_multilevel(make_pla_like(profile));
    Input input{profile.name, write_bench_string(circuit)};
    if (seed != 0) input.text = relabel_bench(input.text, seed);
    inputs.push_back(std::move(input));
  }
  return inputs;
}

/// Op order: canonical for seed 0, a seeded permutation otherwise.
void permute(std::vector<Input>& inputs, std::uint64_t seed) {
  if (seed == 0) return;
  Rng rng(seed ^ 0x6f70u);
  shuffle(inputs, rng);
}

// ---------------------------------------------------------------------- ops

/// Everything one op produced that the checks and metrics read.
struct OpRecord {
  std::size_t circuit = 0;  // index into the workload's inputs
  std::size_t pass = 0;
  bool traced = false;
  std::string error;  // non-empty when the op threw or refused
  double seconds = 0.0;

  // Final classification (the kInputSort run).
  bool completed = false;
  std::uint64_t kept = 0;
  BigUint rd;
  BigUint total;
  double rd_percent = 0.0;
  std::uint64_t work = 0;
  ImplicationStats stats;
  std::uint64_t prerun_work = 0;

  // ATPG.
  std::vector<LogicalPath> paths;
  std::shared_ptr<GeneratedTestSet> set;

  // Traced ops only.
  double sort_s = 0.0;
  double fs_prerun_s = 0.0;
  double nr_prerun_s = 0.0;
  double dfs_s = 0.0;
  double classify_span_s = 0.0;
  ImplicationStats prerun_stats;
  double sort_busy_s = 0.0;  // pool busy seconds in the pre-runs
  double dfs_busy_s = 0.0;   // pool busy seconds in the final DFS
};

double busy_seconds(const ClassifyResult& result) {
  double busy = 0.0;
  for (const ClassifyWorkerStats& worker : result.worker_stats)
    busy += worker.busy_seconds;
  return busy;
}

void record_classify(const ClassifyResult& result, OpRecord& record) {
  record.completed = result.completed;
  record.kept = result.kept_paths;
  record.rd = result.rd_paths;
  record.total = result.total_logical;
  record.rd_percent = result.rd_percent;
  record.work = result.work;
  record.stats = result.implication;
  record.dfs_s = result.wall_seconds;
  record.dfs_busy_s = busy_seconds(result);
}

/// The classify step of an op, untraced: the library's one-call entry
/// point, as rdfast_cli classify/atpg call it.
ClassifyResult classify_untraced(const Circuit& circuit,
                                 const Workload& workload,
                                 const ClassifyOptions& base,
                                 std::optional<InputSort>& sort_out,
                                 OpRecord& record) {
  Rng rng(1);
  RdIdentification rd = workload.heuristic == 1
                            ? identify_rd_heuristic1(circuit, base, &rng)
                            : identify_rd_heuristic2(circuit, base, &rng);
  record.prerun_work = rd.prerun_work;
  if (!sort_out) sort_out = std::move(rd.sort);
  return std::move(rd.classify);
}

/// The classify step of an op, traced: the same steps
/// identify_rd_heuristicN takes (sort, compile under the sort's pin
/// order, kInputSort classification), each in its own span.
ClassifyResult classify_traced(const Circuit& circuit,
                               const Workload& workload,
                               const ClassifyOptions& base,
                               std::optional<InputSort>& sort_out,
                               OpRecord& record, SpanRecorder& spans,
                               int op) {
  Rng rng(1);
  std::optional<InputSort> sort;
  {
    const int id = spans.open("core.sort", op);
    if (workload.heuristic == 1) {
      sort = heuristic1_sort(circuit, &rng);
    } else {
      ClassifyResult fs;
      ClassifyResult nr;
      sort = heuristic2_sort(circuit, &rng, &fs, &nr, &base);
      record.prerun_work = fs.work + nr.work;
      record.fs_prerun_s = fs.wall_seconds;
      record.nr_prerun_s = nr.wall_seconds;
      record.prerun_stats = fs.implication;
      record.prerun_stats.merge(nr.implication);
      record.sort_busy_s = busy_seconds(fs) + busy_seconds(nr);
    }
    spans.close(id);
    record.sort_s = spans.duration(id);
  }
  std::optional<CompiledCircuit> compiled;
  {
    ScopedSpan span(&spans, "netlist.compile", op);
    const InputSort& order = *sort;
    compiled.emplace(circuit,
                     [&order](GateId gate, std::uint32_t a, std::uint32_t b) {
                       return order.before(gate, a, b);
                     });
  }
  ClassifyOptions options = base;
  options.criterion = Criterion::kInputSort;
  options.sort = &*sort;
  options.compiled = &*compiled;
  ClassifyResult result;
  {
    const int id = spans.open("core.classify", op);
    result = classify_paths(circuit, options);
    spans.close(id);
    record.classify_span_s = spans.duration(id);
  }
  if (!sort_out) sort_out = std::move(sort);
  return result;
}

std::vector<LogicalPath> decode_paths(
    const std::vector<std::vector<std::uint32_t>>& keys) {
  std::vector<LogicalPath> paths;
  paths.reserve(keys.size());
  for (const auto& key : keys) {
    LogicalPath path;
    path.path.leads.assign(key.begin(), key.end() - 1);
    path.final_pi_value = key.back() != 0;
    paths.push_back(std::move(path));
  }
  return paths;
}

void run_op(const Circuit& circuit, const Workload& workload,
            std::optional<InputSort>& sort_out, OpRecord& record,
            SpanRecorder* spans, int op) {
  ClassifyOptions base;
  base.num_threads = workload.threads;
  if (workload.kind == OpKind::kAtpg)
    base.collect_paths_limit = kAtpgPathLimit;

  ClassifyResult result;
  if (spans == nullptr) {
    result = classify_untraced(circuit, workload, base, sort_out, record);
  } else {
    ScopedSpan span(workload.kind == OpKind::kAtpg ? spans : nullptr,
                    "atpg.classify", op);
    result = classify_traced(circuit, workload, base, sort_out, record,
                             *spans, op);
  }
  record_classify(result, record);
  if (workload.kind != OpKind::kAtpg) return;

  if (!result.completed) {
    record.error = "classification did not complete";
    return;
  }
  if (result.kept_paths > kAtpgPathLimit) {
    record.error = "too many must-test paths for ATPG";
    return;
  }
  ScopedSpan span(spans, "atpg.generate", op);
  record.paths = decode_paths(result.kept_keys);
  record.set = std::make_shared<GeneratedTestSet>(
      generate_test_set(circuit, record.paths));
}

// ------------------------------------------------------------ verification

/// The expected deterministic fields of one classification, from the
/// frozen reference engine.
struct Expected {
  std::uint64_t kept = 0;
  BigUint rd;
  std::uint64_t work = 0;
  ImplicationStats stats;
};

std::uint64_t fnv1a(std::uint64_t hash, const std::string& bytes) {
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string sort_fingerprint(const Circuit& circuit, const InputSort& sort) {
  std::string text;
  for (GateId id = 0; id < circuit.num_gates(); ++id)
    for (std::uint32_t pin = 0; pin < circuit.gate(id).fanins.size(); ++pin)
      text += std::to_string(sort.rank(id, pin)) + ',';
  return text;
}

std::optional<Expected> read_expected(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  Expected expected;
  std::string rd;
  if (!(in >> expected.kept >> rd >> expected.work >>
        expected.stats.assignments >> expected.stats.propagations >>
        expected.stats.conflicts >> expected.stats.backward))
    return std::nullopt;
  try {
    expected.rd = BigUint::from_decimal(rd);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  return expected;
}

void write_expected(const std::string& path, const Expected& expected) {
  const std::string temp = path + ".tmp";
  {
    std::ofstream out(temp);
    out << expected.kept << ' ' << expected.rd.to_decimal() << ' '
        << expected.work << ' ' << expected.stats.assignments << ' '
        << expected.stats.propagations << ' ' << expected.stats.conflicts
        << ' ' << expected.stats.backward << '\n';
    if (!out) return;
  }
  std::filesystem::rename(temp, path);
}

/// classify_paths_reference on (circuit, sort), cached on disk keyed by
/// the circuit text and the sort.
Expected reference_result(const Circuit& circuit, const std::string& text,
                          const InputSort& sort,
                          const std::string& cache_dir) {
  std::string path;
  if (!cache_dir.empty()) {
    const std::uint64_t key =
        fnv1a(fnv1a(0xcbf29ce484222325ull, text),
              "|" + sort_fingerprint(circuit, sort));
    char name[40];
    std::snprintf(name, sizeof name, "ref-%016llx.txt",
                  static_cast<unsigned long long>(key));
    path = (std::filesystem::path(cache_dir) / name).string();
    if (std::optional<Expected> cached = read_expected(path)) return *cached;
  }
  ClassifyOptions options;
  options.criterion = Criterion::kInputSort;
  options.sort = &sort;
  const ClassifyResult result = classify_paths_reference(circuit, options);
  if (!result.completed)
    throw std::runtime_error("reference run did not complete on " +
                             circuit.name());
  Expected expected{result.kept_paths, result.rd_paths, result.work,
                    result.implication};
  if (!path.empty()) write_expected(path, expected);
  return expected;
}

/// Why an op's result is wrong, or empty when it is right.
std::string check_op(const OpRecord& op, const Expected& expected,
                     const BigUint& total, const OpRecord& first,
                     const Circuit& circuit) {
  if (!op.error.empty()) return op.error;
  if (!op.completed) return "classification did not complete";
  if (op.kept != expected.kept) return "kept_paths differs from reference";
  if (op.rd != expected.rd) return "rd_paths differs from reference";
  if (op.work != expected.work) return "work differs from reference";
  if (!(op.stats == expected.stats))
    return "ImplicationStats differ from reference";
  if (op.total != total || BigUint(op.kept) + op.rd != total)
    return "kept + rd != total logical paths";
  if (op.prerun_work != first.prerun_work)
    return "pre-run work differs between ops on one circuit";
  if (op.set == nullptr) return {};

  const GeneratedTestSet& set = *op.set;
  if (set.robust_count + set.nonrobust_count + set.undetected_count !=
          op.kept ||
      op.paths.size() != op.kept || set.detection.size() != op.kept ||
      set.detected_by.size() != op.kept)
    return "robust + nonrobust + undetected != must-test";
  if (!set.completed) return "test generation did not complete";
  if (first.set != nullptr && set.tests.size() != first.set->tests.size())
    return "test count differs between ops on one circuit";
  // Re-simulate every test on the paths it claims.
  std::map<int, std::vector<std::size_t>> claimed;
  for (std::size_t i = 0; i < op.paths.size(); ++i) {
    const bool detected = set.detection[i] != DetectionClass::kNone;
    if (detected != (set.detected_by[i] >= 0))
      return "detection record without a detecting test";
    if (detected) claimed[set.detected_by[i]].push_back(i);
  }
  for (const auto& [test, indices] : claimed) {
    if (static_cast<std::size_t>(test) >= set.tests.size())
      return "detecting test index out of range";
    std::vector<LogicalPath> paths;
    for (std::size_t i : indices) paths.push_back(op.paths[i]);
    const std::vector<DetectionClass> simulated =
        simulate_path_test(circuit, paths, set.tests[test]);
    for (std::size_t k = 0; k < indices.size(); ++k)
      if (simulated[k] != set.detection[indices[k]])
        return "re-simulated detection class differs";
  }
  return {};
}

// ----------------------------------------------------------------- metrics

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buffer[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buffer, sizeof buffer, "%.12g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name +
           "\": {\"value\": " + buffer + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}";
}

/// Peak resident set size of this process image, from VmHWM.
/// (getrusage's ru_maxrss survives exec, so it would report the
/// launching Python process's peak whenever that is larger.)
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// The per-layer metrics of one traced pass, summed over its ops.
std::vector<Metric> layer_metrics(const Workload& workload,
                                  const SpanRecorder& recorder,
                                  const std::vector<OpRecord>& ops,
                                  std::size_t pass, double pass_seconds) {
  // Span self times by name, and the time of the spans directly under
  // an op (everything else in the pass is unattributed).
  std::map<std::string, double> self_by_name, total_by_name;
  double attributed = 0.0;
  const std::vector<double> self = recorder.self_times();
  const auto& spans = recorder.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].op < 0 || ops[spans[i].op].pass != pass) continue;
    const double duration = recorder.duration(static_cast<int>(i));
    self_by_name[spans[i].name] += self[i];
    total_by_name[spans[i].name] += duration;
    if (spans[i].parent >= 0 && std::string(spans[spans[i].parent].name) == "op")
      attributed += duration;
  }

  double fs_prerun = 0, nr_prerun = 0, prerun_work = 0, dfs = 0, dfs_work = 0;
  double count = 0, sort_busy = 0, dfs_busy = 0, sort_wall = 0;
  double robust_nodes = 0, nonrobust_nodes = 0, budget_exceeded = 0;
  double tests = 0, robust = 0, must_test = 0;
  ImplicationStats sim;
  for (const OpRecord& op : ops) {
    if (op.pass != pass) continue;
    fs_prerun += op.fs_prerun_s;
    nr_prerun += op.nr_prerun_s;
    prerun_work += static_cast<double>(op.prerun_work);
    dfs += op.dfs_s;
    dfs_work += static_cast<double>(op.work);
    count += op.classify_span_s - op.dfs_s;
    sort_busy += op.sort_busy_s;
    dfs_busy += op.dfs_busy_s;
    sort_wall += op.sort_s;
    sim.merge(op.stats);
    sim.merge(op.prerun_stats);
    if (op.set == nullptr) continue;
    robust_nodes += static_cast<double>(op.set->robust_nodes);
    nonrobust_nodes += static_cast<double>(op.set->nonrobust_nodes);
    budget_exceeded += static_cast<double>(op.set->robust_budget_exceeded);
    tests += static_cast<double>(op.set->tests.size());
    robust += static_cast<double>(op.set->robust_count);
    must_test += static_cast<double>(op.kept);
  }
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  // Pool capacity: threads x wall of the span.  Serial runs have no pool.
  const double threads =
      workload.threads > 1 ? static_cast<double>(workload.threads) : 0.0;
  const bool prerun = workload.heuristic == 2;
  // Classifier wall time: the final DFS plus, under Heuristic 2, the
  // sort (its two pre-runs); Heuristic 1's sort runs no classifier.
  const double classifier_s = dfs + (prerun ? sort_wall : 0.0);
  const double generate_s = self_by_name["atpg.generate"];
  return {
      {"core.sort_s", self_by_name["core.sort"], "s"},
      {"core.fs_prerun_s", fs_prerun, "s"},
      {"core.nr_prerun_s", nr_prerun, "s"},
      {"core.prerun_work", prerun_work, "count"},
      {"util.pool_busy_frac_sort",
       ratio(sort_busy, prerun ? threads * sort_wall : 0.0), "ratio"},
      {"util.pool_busy_frac_dfs", ratio(dfs_busy, threads * dfs), "ratio"},
      {"netlist.compile_s", self_by_name["netlist.compile"], "s"},
      {"core.dfs_s", dfs, "s"},
      {"core.dfs_work", dfs_work, "count"},
      {"sim.assignments", static_cast<double>(sim.assignments), "count"},
      {"sim.propagations", static_cast<double>(sim.propagations), "count"},
      {"sim.conflicts", static_cast<double>(sim.conflicts), "count"},
      {"sim.backward", static_cast<double>(sim.backward), "count"},
      {"sim.props_per_s",
       ratio(static_cast<double>(sim.propagations), classifier_s), "1/s"},
      {"sim.conflict_ratio",
       ratio(static_cast<double>(sim.conflicts), dfs_work + prerun_work),
       "ratio"},
      {"paths.count_s", count, "s"},
      {"atpg.classify_s", total_by_name["atpg.classify"], "s"},
      {"atpg.generate_s", generate_s, "s"},
      {"atpg.robust_nodes", robust_nodes, "count"},
      {"atpg.nonrobust_nodes", nonrobust_nodes, "count"},
      {"atpg.robust_budget_exceeded", budget_exceeded, "count"},
      {"atpg.nodes_per_s", ratio(robust_nodes + nonrobust_nodes, generate_s),
       "1/s"},
      {"atpg.tests", tests, "count"},
      {"atpg.robust_cov_pct", ratio(100.0 * robust, must_test), "%"},
      {"unattributed_s", pass_seconds - attributed, "s"},
  };
}

// -------------------------------------------------------------------- main

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string cache_dir;
  bool self_test = false;
};

[[noreturn]] void usage(const std::string& message) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "NAME --seed N --seconds S --trace 0|1 [--cache-dir DIR] "
               "[--self-test]\n",
               message.c_str());
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  unsigned long long value = 0;
  try {
    value = std::stoull(text, &used);
  } catch (const std::exception&) {
    usage(flag + ": not a number: " + text);
  }
  if (used != text.size() || text.empty() || text[0] == '-')
    usage(flag + ": not a number: " + text);
  return value;
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      args.self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = parse_uint(flag, value);
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(parse_uint(flag, value));
      have_seconds = args.seconds > 0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--cache-dir") {
      args.cache_dir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!have_seconds) usage("--seconds must be a positive whole number");
  return args;
}

int run(const Args& args) {
  const Workload* workload = nullptr;
  for (const Workload& candidate : kWorkloads)
    if (args.workload == candidate.name) workload = &candidate;
  if (workload == nullptr) usage("unknown workload " + args.workload);
  if (!args.cache_dir.empty())
    std::filesystem::create_directories(args.cache_dir);

  Stopwatch input_watch;
  std::vector<Input> inputs = workload->kind == OpKind::kAtpg
                                  ? pla_inputs(args.seed)
                                  : iscas_inputs(args.seed);
  permute(inputs, args.seed);
  const double input_seconds = input_watch.elapsed_seconds();
  const std::size_t n = inputs.size();

  SpanRecorder recorder;
  SpanRecorder* spans = args.trace ? &recorder : nullptr;

  // Set-up: load every circuit from its .bench text.  It is timed a
  // few times before the first op and again after every pass (outside
  // the op timings), so its median spans the whole run rather than one
  // moment of a machine whose speed comes and goes in bursts.
  std::vector<Circuit> circuits;
  std::vector<double> setup_seconds;
  auto set_up = [&] {
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
      std::vector<Circuit> loaded;
      Stopwatch watch;
      ScopedSpan setup_span(spans, "setup", -1);
      for (const Input& input : inputs) {
        ScopedSpan span(spans, "io.parse", -1);
        loaded.push_back(read_bench_string(input.text, input.name));
      }
      setup_seconds.push_back(watch.elapsed_seconds());
      circuits = std::move(loaded);
    }
  };
  set_up();

  // The timed closed loop.  In traced runs, untraced and traced passes
  // alternate so the tracing overhead is measured on the same inputs.
  std::vector<OpRecord> ops;
  std::vector<std::optional<InputSort>> sorts(n);
  std::vector<double> pass_seconds;
  std::vector<bool> pass_traced;
  const std::size_t min_passes = args.trace ? 2 : 1;
  Stopwatch run_watch;
  for (std::size_t pass = 0;; ++pass) {
    const bool traced = args.trace && pass % 2 == 1;
    Stopwatch pass_watch;
    for (std::size_t c = 0; c < n; ++c) {
      OpRecord record;
      record.circuit = c;
      record.pass = pass;
      record.traced = traced;
      const int op = static_cast<int>(ops.size());
      Stopwatch op_watch;
      try {
        ScopedSpan span(traced ? spans : nullptr, "op", op);
        run_op(circuits[c], *workload, sorts[c], record,
               traced ? spans : nullptr, op);
      } catch (const std::exception& error) {
        record.error = error.what();
      }
      record.seconds = op_watch.elapsed_seconds();
      ops.push_back(std::move(record));
    }
    pass_seconds.push_back(pass_watch.elapsed_seconds());
    pass_traced.push_back(traced);
    const double elapsed = run_watch.elapsed_seconds();
    if (pass + 1 >= min_passes && elapsed + pass_seconds.back() > args.seconds)
      break;
    set_up();
  }
  const double rss_mb = peak_rss_mb();

  // Verification, outside the timed region.
  std::vector<BigUint> totals(n);
  std::vector<Expected> expected(n);
  std::vector<const OpRecord*> first(n, nullptr);
  for (const OpRecord& op : ops)
    if (first[op.circuit] == nullptr) first[op.circuit] = &op;
  Stopwatch check_watch;
  {
    // The reference engine is slow and serial; run the circuits side by
    // side (the timed loop is over, so nothing is disturbed).
    std::atomic<std::size_t> next{0};
    std::vector<std::string> errors(n);
    auto worker = [&] {
      for (std::size_t c; (c = next.fetch_add(1)) < n;) {
        try {
          totals[c] = PathCounts(circuits[c]).total_logical();
          if (sorts[c])  // else every op on it threw before sorting
            expected[c] = reference_result(circuits[c], inputs[c].text,
                                           *sorts[c], args.cache_dir);
        } catch (const std::exception& error) {
          errors[c] = error.what();
        }
      }
    };
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < std::min<std::size_t>(n, 4); ++t)
      threads.emplace_back(worker);
    for (std::thread& thread : threads) thread.join();
    for (const std::string& error : errors)
      if (!error.empty()) throw std::runtime_error(error);
  }
  auto count_failures = [&](const std::vector<Expected>& truth,
                            bool print) {
    std::size_t failed = 0;
    for (const OpRecord& op : ops) {
      const std::string why = check_op(op, truth[op.circuit], totals[op.circuit],
                                       *first[op.circuit],
                                       circuits[op.circuit]);
      if (why.empty()) continue;
      ++failed;
      if (print)
        std::fprintf(stderr, "perfbench: op %s (pass %zu) failed: %s\n",
                     inputs[op.circuit].name.c_str(), op.pass, why.c_str());
    }
    return failed;
  };
  const std::size_t failed = count_failures(expected, true);
  const std::size_t attempted = ops.size();
  const double check_seconds = check_watch.elapsed_seconds();

  bool self_test_ok = true;
  if (args.self_test) {
    // Corrupt one expected value; every op on that circuit must fail.
    std::vector<Expected> corrupted = expected;
    corrupted[0].kept += 1;
    const std::size_t corrupted_failed = count_failures(corrupted, false);
    self_test_ok = failed == 0 && corrupted_failed > failed;
    std::printf("self-test: %zu of %zu ops fail against the true reference, "
                "%zu against a corrupted one: %s\n",
                failed, attempted, corrupted_failed,
                self_test_ok ? "ok" : "FAILED");
    if (workload->kind == OpKind::kAtpg) {
      // Flip one recorded detection class; the re-simulation must see it.
      for (OpRecord& op : ops) {
        if (op.set == nullptr || op.set->detection.empty()) continue;
        auto set = std::make_shared<GeneratedTestSet>(*op.set);
        for (std::size_t i = 0; i < set->detection.size(); ++i) {
          if (set->detection[i] == DetectionClass::kNone) continue;
          set->detection[i] = set->detection[i] == DetectionClass::kRobust
                                  ? DetectionClass::kNonRobust
                                  : DetectionClass::kRobust;
          break;
        }
        std::swap(op.set, set);
        const std::size_t flipped_failed = count_failures(expected, false);
        std::swap(op.set, set);
        const bool ok = flipped_failed == failed + 1;
        std::printf("self-test: a flipped detection class %s\n",
                    ok ? "is caught: ok" : "is NOT caught: FAILED");
        self_test_ok = self_test_ok && ok;
        break;
      }
    }
  }

  // End-to-end metrics come from untraced passes only.  Each circuit's
  // op time is its fastest untraced op of the run: on a shared machine
  // whose speed drifts by 2x or more over seconds, best-of-passes
  // spread least from run to run (medians spread about twice as much).
  std::vector<double> untraced_pass, traced_pass;
  for (std::size_t p = 0; p < pass_seconds.size(); ++p)
    (pass_traced[p] ? traced_pass : untraced_pass).push_back(pass_seconds[p]);
  std::vector<double> op_best(n, 0.0);
  for (std::size_t c = 0; c < n; ++c) {
    std::vector<double> times;
    for (const OpRecord& op : ops)
      if (op.circuit == c && !op.traced) times.push_back(op.seconds);
    op_best[c] = *std::min_element(times.begin(), times.end());
  }
  double wall = 0.0;
  for (double seconds : op_best) wall += seconds;
  const double max_op = *std::max_element(op_best.begin(), op_best.end());
  double rd_sum = 0.0;
  for (std::size_t c = 0; c < n; ++c) rd_sum += first[c]->rd_percent;
  const double rd_pct = rd_sum / static_cast<double>(n);

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", median(setup_seconds), "s"},
        {"wall_s", wall, "s"},
        {"max_op_s", max_op, "s"},
        {"peak_rss_mb", rss_mb, "MiB"},
        {"rd_pct", rd_pct, "%"},
    };
  } else {
    // Per-layer metrics: each traced pass's sums, then the median of
    // every metric over the traced passes.
    std::vector<double> parse_per_setup;
    const std::vector<double> self = recorder.self_times();
    for (std::size_t i = 0; i < recorder.spans().size(); ++i)
      if (std::string(recorder.spans()[i].name) == "setup")
        parse_per_setup.push_back(recorder.duration(static_cast<int>(i)) -
                                  self[i]);
    metrics.push_back({"io.parse_s", median(parse_per_setup), "s"});
    std::vector<std::vector<Metric>> per_pass;
    for (std::size_t p = 0; p < pass_seconds.size(); ++p)
      if (pass_traced[p])
        per_pass.push_back(
            layer_metrics(*workload, recorder, ops, p, pass_seconds[p]));
    for (std::size_t m = 0; m < per_pass.front().size(); ++m) {
      std::vector<double> values;
      for (const std::vector<Metric>& pass : per_pass)
        values.push_back(pass[m].value);
      metrics.push_back(
          {per_pass.front()[m].name, median(values), per_pass.front()[m].unit});
    }
    metrics.push_back({"trace.overhead_s",
                       median(traced_pass) - median(untraced_pass), "s"});
    if (!args.cache_dir.empty()) {
      const std::string path =
          (std::filesystem::path(args.cache_dir) /
           ("spans-" + args.workload + "-" + std::to_string(args.seed) +
            ".jsonl"))
              .string();
      if (!recorder.write_jsonl(path))
        std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
    }
  }

  // Human-readable summary, then the result line.
  std::printf("workload %s, seed %llu: %zu circuits, %zu passes (%zu traced), "
              "%zu ops, %zu failed (failed_frac %.4g)\n",
              workload->name, static_cast<unsigned long long>(args.seed), n,
              pass_seconds.size(), traced_pass.size(), attempted, failed,
              static_cast<double>(failed) / static_cast<double>(attempted));
  std::printf("  inputs made in %.2f s, checks took %.2f s\n", input_seconds,
              check_seconds);
  std::printf("  pass seconds:");
  for (std::size_t p = 0; p < pass_seconds.size(); ++p)
    std::printf(" %.3f%s", pass_seconds[p], pass_traced[p] ? "(traced)" : "");
  std::printf("\n");
  for (std::size_t c = 0; c < n; ++c) {
    std::printf("  %-6s best %.4f s  kept %llu  rd %.2f%%%s\n",
                inputs[c].name.c_str(), op_best[c],
                static_cast<unsigned long long>(first[c]->kept),
                first[c]->rd_percent,
                first[c]->set != nullptr
                    ? (" tests " + std::to_string(first[c]->set->tests.size()))
                          .c_str()
                    : "");
  }
  for (const Metric& metric : metrics)
    std::printf("  %-28s %.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  const bool correct = failed == 0 && self_test_ok;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              metrics_json(metrics).c_str());
  std::fflush(stdout);
  return args.self_test && !self_test_ok ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_driver: %s\n", error.what());
    return 1;
  }
}
