// rdfast_cli — command-line driver for the library.
//
//   rdfast_cli stats    <circuit>            netlist statistics
//   rdfast_cli classify <circuit> [options]  RD identification
//   rdfast_cli atpg     <circuit> [options]  RD + test-set generation
//   rdfast_cli gen      <profile>            emit a synthetic benchmark
//   rdfast_cli report   <circuit>            Figure-3 hierarchy report
//   rdfast_cli select   <circuit> [--k=N]    K longest non-RD paths
//   rdfast_cli validate-json <file>          check a run report's schema
//   rdfast_cli serve    [options]            persistent daemon (README
//                                            "Serving"): --port=N (0 =
//                                            ephemeral), --port-file=F,
//                                            --workers=N,
//                                            --cache-capacity=N,
//                                            --cone-cache-dir=D
//                                            (persist the cone cache
//                                            for incremental requests)
//   rdfast_cli request  <port|@port-file> [options]
//                                            one request against a
//                                            running daemon: --op=
//                                            classify|atpg|ping|stats|
//                                            shutdown|validate,
//                                            --circuit=SPEC plus the
//                                            classify/atpg flags below
//
// <circuit> is a .bench file path or the name of a built-in synthetic
// benchmark (c432 ... c7552, c6288, example, c17).
//
// classify options:  --heuristic=1|2|fus|inverse   (default 2)
//                    --engine=approx|resilient (default approx)
//                                   resilient runs the exact → SAT →
//                                   approximate degradation ladder
//                    --work-limit=N
//                    --threads=N    parallel classification engine
//                                   (0 = all hardware threads; results
//                                   are identical for every N)
//                    --stats-json=FILE  write a schema-versioned run
//                                   report (see DESIGN.md)
//                    --incremental  per-PO cone decomposition over the
//                                   cone cache (ECO mode, DESIGN.md
//                                   §13); bit-identical to itself for
//                                   every thread count and cache state
//                    --cache-dir=D  load/persist the cone cache under
//                                   directory D (implies --incremental;
//                                   D is created if its parent exists)
// atpg options:      --max-paths=N   cap on enumerated must-test paths
//                    --threads=N
//                    --stats-json=FILE
//
// resource options (classify and atpg): --deadline-ms=N,
// --max-memory-mb=N.  SIGINT requests cooperative cancellation: the
// run stops at the next guard checkpoint, still writes --stats-json,
// prints "ABORTED (cancelled)" and exits 130.  Aborted runs always
// emit a schema-valid partial report naming the abort reason.
//
// test hooks (deterministic abort-path coverage, not for normal use):
//   --inject-abort-after=N [--inject-abort-reason=deadline|memory|
//   cancelled|work_budget]   trip the guard at its Nth check
//   --inject-sigint-after=N  raise SIGINT at the Nth guard check
//   --inject-cache-truncate-after=N / --inject-cache-flip-bit=N /
//   --inject-cache-crash-after=N   damage the cone-cache save
//   (truncated image / single bit flip / SIGKILL mid-write) so the
//   next run's recovery ladder is exercised deterministically
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "atpg/testset.h"
#include "cache/eco_classify.h"
#include "core/heuristics.h"
#include "core/report.h"
#include "core/resilient.h"
#include "gen/examples.h"
#include "gen/iscas_like.h"
#include "io/bench_io.h"
#include "io/json_writer.h"
#include "io/run_report.h"
#include "io/stats.h"
#include "io/verilog_io.h"
#include "sat/cnf.h"
#include "serve/frame.h"
#include "serve/server.h"
#include "serve/session.h"
#include "util/fsdir.h"
#include "util/metrics.h"
#include "sta/timing.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/strings.h"

namespace {

using namespace rd;

/// SIGINT flips this token; every engine holding the guard observes it
/// at its next checkpoint and unwinds cooperatively.
CancellationToken g_cancel;

extern "C" void handle_sigint(int) { g_cancel.request(); }

/// Shared resource/injection flags for classify and atpg.
struct GuardFlags {
  double deadline_ms = 0.0;
  std::uint64_t max_memory_mb = 0;
  std::uint64_t inject_abort_after = 0;
  std::string inject_abort_reason = "work_budget";
  std::uint64_t inject_sigint_after = 0;

  /// Consumes a recognized --flag=value; false if not ours.  Strict
  /// parsing: a negative, overflowing or garbage-suffixed value is a
  /// usage error (std::invalid_argument → exit 2), never a silent
  /// truncation.
  bool parse(const std::string& arg) {
    if (starts_with(arg, "--deadline-ms=")) {
      deadline_ms = parse_double_strict(arg.substr(14), "--deadline-ms");
      return true;
    }
    if (starts_with(arg, "--max-memory-mb=")) {
      max_memory_mb = parse_uint64_strict(arg.substr(16), "--max-memory-mb");
      return true;
    }
    if (starts_with(arg, "--inject-abort-after=")) {
      inject_abort_after =
          parse_uint64_strict(arg.substr(21), "--inject-abort-after");
      return true;
    }
    if (starts_with(arg, "--inject-abort-reason=")) {
      inject_abort_reason = arg.substr(22);
      return true;
    }
    if (starts_with(arg, "--inject-sigint-after=")) {
      inject_sigint_after =
          parse_uint64_strict(arg.substr(22), "--inject-sigint-after");
      return true;
    }
    return false;
  }

  ExecGuardOptions guard_options() const {
    ExecGuardOptions options;
    options.deadline_seconds = deadline_ms / 1000.0;
    options.memory_limit_bytes = max_memory_mb * 1024 * 1024;
    options.cancel = &g_cancel;
    return options;
  }

  /// Arms the deterministic fault-injection hooks, if requested.
  void arm(ExecGuard& guard) const {
    if (inject_abort_after != 0) {
      AbortReason reason;
      if (inject_abort_reason == "deadline")
        reason = AbortReason::kDeadline;
      else if (inject_abort_reason == "memory")
        reason = AbortReason::kMemory;
      else if (inject_abort_reason == "cancelled")
        reason = AbortReason::kCancelled;
      else if (inject_abort_reason == "work_budget")
        reason = AbortReason::kWorkBudget;
      else
        throw std::invalid_argument("unknown --inject-abort-reason: " +
                                    inject_abort_reason);
      guard.inject_trip_at(inject_abort_after, reason);
    }
    if (inject_sigint_after != 0)
      guard.inject_at_check(inject_sigint_after, [] { std::raise(SIGINT); });
  }
};

int abort_exit_code(AbortReason reason) {
  return reason == AbortReason::kCancelled ? 130 : 1;
}

Circuit load_circuit(const std::string& spec) {
  if (spec == "example") return paper_example_circuit();
  if (spec == "c17") return c17();
  if (!spec.empty() && spec[0] == 'c' && spec.find('.') == std::string::npos) {
    try {
      return make_benchmark(spec);
    } catch (const std::invalid_argument&) {
      // fall through to file loading
    }
  }
  return read_bench_file(spec);
}

/// load_circuit, timed as `io.load` for the --stats-json metrics.
Circuit load_circuit_timed(const std::string& spec) {
  ScopedTimer timer(global_metrics(), "io.load");
  return load_circuit(spec);
}

int cmd_stats(const std::string& spec) {
  const Circuit circuit = load_circuit(spec);
  std::fputs(stats_to_string(compute_stats(circuit)).c_str(), stdout);
  return 0;
}

int cmd_classify(const std::string& spec, int argc, char** argv) {
  std::string heuristic = "2";
  std::string engine = "approx";
  std::string stats_json;
  std::string cache_dir;
  bool incremental = false;
  CacheFaultInjection cache_inject;
  ClassifyOptions base;
  GuardFlags guard_flags;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (starts_with(arg, "--heuristic="))
      heuristic = arg.substr(12);
    else if (starts_with(arg, "--engine="))
      engine = arg.substr(9);
    else if (starts_with(arg, "--work-limit="))
      base.work_limit = parse_uint64_strict(arg.substr(13), "--work-limit");
    else if (starts_with(arg, "--threads="))
      base.num_threads = parse_size_strict(arg.substr(10), "--threads");
    else if (starts_with(arg, "--stats-json="))
      stats_json = arg.substr(13);
    else if (arg == "--incremental")
      incremental = true;
    else if (starts_with(arg, "--cache-dir=")) {
      // Validated before any work: a bad directory is a usage error
      // naming the flag, not a mid-run I/O failure.
      cache_dir = validate_directory_flag(arg.substr(12), "--cache-dir");
      incremental = true;
    } else if (starts_with(arg, "--inject-cache-truncate-after="))
      cache_inject.truncate_after_bytes = parse_uint64_strict(
          arg.substr(30), "--inject-cache-truncate-after");
    else if (starts_with(arg, "--inject-cache-flip-bit="))
      cache_inject.flip_bit =
          parse_uint64_strict(arg.substr(24), "--inject-cache-flip-bit");
    else if (starts_with(arg, "--inject-cache-crash-after="))
      cache_inject.crash_after_bytes = parse_uint64_strict(
          arg.substr(27), "--inject-cache-crash-after");
    else if (!guard_flags.parse(arg)) {
      std::fprintf(stderr, "unknown classify option: %s\n", arg.c_str());
      return 2;
    }
  }
  if (!incremental && (cache_inject.truncate_after_bytes != 0 ||
                       cache_inject.flip_bit != 0 ||
                       cache_inject.crash_after_bytes != 0)) {
    std::fprintf(stderr,
                 "usage error: --inject-cache-* requires --incremental\n");
    return 2;
  }
  if (incremental && engine == "resilient") {
    std::fprintf(stderr,
                 "usage error: --incremental does not compose with "
                 "--engine=resilient\n");
    return 2;
  }
  const Circuit circuit = load_circuit_timed(spec);
  ExecGuard guard(guard_flags.guard_options());
  guard_flags.arm(guard);
  base.guard = &guard;
  Rng rng(1);
  Stopwatch watch;
  RdIdentification rd;
  ResilientClassifyResult resilient;
  ConeCacheStore cone_store;
  EcoStats eco_stats;
  const bool use_ladder = engine == "resilient";
  if (use_ladder) {
    ResilientOptions options;
    options.guard = &guard;
    options.classify = base;
    resilient = classify_resilient(circuit, options);
    rd.classify = resilient.classify;
  } else if (engine != "approx") {
    std::fprintf(stderr, "unknown engine '%s'\n", engine.c_str());
    return 2;
  } else if (incremental) {
    if (heuristic != "1" && heuristic != "2" && heuristic != "inverse" &&
        heuristic != "fus") {
      std::fprintf(stderr, "unknown heuristic '%s'\n", heuristic.c_str());
      return 2;
    }
    if (!cache_dir.empty()) cone_store.load(cache_dir);
    EcoOptions options;
    options.sort_spec = heuristic;
    options.base = base;
    EcoResult eco = classify_eco(circuit, cone_store, options);
    // Persist before reporting: a crash-injection run must leave the
    // same artifacts a real crash would, nothing more.
    if (!cache_dir.empty()) cone_store.save(cache_dir, cache_inject);
    rd.classify = std::move(eco.classify);
    rd.sort_seconds = eco.stats.sort_seconds;
    rd.prerun_work = eco.stats.prerun_work;
    eco_stats = eco.stats;
  } else if (heuristic == "fus") {
    rd.classify = classify_fus(circuit, base);
  } else if (heuristic == "1") {
    rd = identify_rd_heuristic1(circuit, base, &rng);
  } else if (heuristic == "2") {
    rd = identify_rd_heuristic2(circuit, base, &rng);
  } else if (heuristic == "inverse") {
    rd = identify_rd_heuristic2_inverse(circuit, base, &rng);
  } else {
    std::fprintf(stderr, "unknown heuristic '%s'\n", heuristic.c_str());
    return 2;
  }
  const ClassifyResult& result = rd.classify;
  if (!stats_json.empty()) {
    record_classify_metrics(result, global_metrics());
    JsonValue report = classify_run_report(
        circuit.name(),
        use_ladder    ? "resilient"
        : incremental ? "eco:" + heuristic
                      : heuristic,
        rd, &global_metrics());
    if (use_ladder) report.set("resilient", resilient_json(resilient));
    if (incremental)
      report.set("eco", eco_json(eco_stats, cone_store.stats()));
    write_json_file(stats_json, report);
  }
  std::string method_text =
      heuristic == "fus" ? "FUS baseline [2]" : "Heuristic " + heuristic;
  if (use_ladder)
    method_text = "resilient ladder (" +
                  std::string(engine_rung_name(resilient.engine)) + ")";
  else if (incremental)
    method_text = "incremental (" + method_text + ")";
  std::printf("circuit        : %s\n", circuit.name().c_str());
  std::printf("method         : %s\n", method_text.c_str());
  std::printf("logical paths  : %s\n",
              result.total_logical.to_decimal_grouped().c_str());
  if (incremental) {
    const ConeCacheStore::Stats cache_stats = cone_store.stats();
    std::printf("cones          : %llu (%llu cached, %llu reclassified)\n",
                static_cast<unsigned long long>(eco_stats.cones),
                static_cast<unsigned long long>(eco_stats.hits),
                static_cast<unsigned long long>(eco_stats.misses));
    if (cache_stats.recovery.total() != 0)
      std::printf("cache recovery : %llu damaged artifact(s) survived\n",
                  static_cast<unsigned long long>(
                      cache_stats.recovery.total()));
  }
  if (!result.completed) {
    const AbortReason reason = result.abort_reason == AbortReason::kNone
                                   ? AbortReason::kWorkBudget
                                   : result.abort_reason;
    std::printf("status         : ABORTED (%s)\n", abort_reason_name(reason));
    return abort_exit_code(reason);
  }
  std::printf("robust dep.    : %s (%.2f%%)\n",
              result.rd_paths.to_decimal_grouped().c_str(),
              result.rd_percent);
  std::printf("must-test      : %llu\n",
              static_cast<unsigned long long>(result.kept_paths));
  std::printf("time           : %s\n",
              format_duration(watch.elapsed_seconds()).c_str());
  if (!result.worker_stats.empty())
    std::fputs(classify_run_stats_to_string(result).c_str(), stdout);
  return 0;
}

int cmd_atpg(const std::string& spec, int argc, char** argv) {
  std::uint64_t max_paths = 20000;
  std::size_t num_threads = 1;
  std::string stats_json;
  GuardFlags guard_flags;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (starts_with(arg, "--max-paths="))
      max_paths = parse_uint64_strict(arg.substr(12), "--max-paths");
    else if (starts_with(arg, "--threads="))
      num_threads = parse_size_strict(arg.substr(10), "--threads");
    else if (starts_with(arg, "--stats-json="))
      stats_json = arg.substr(13);
    else if (!guard_flags.parse(arg)) {
      std::fprintf(stderr, "unknown atpg option: %s\n", arg.c_str());
      return 2;
    }
  }
  const Circuit circuit = load_circuit_timed(spec);
  ExecGuard guard(guard_flags.guard_options());
  guard_flags.arm(guard);
  ClassifyOptions options;
  options.collect_paths_limit = max_paths;
  options.num_threads = num_threads;
  options.guard = &guard;
  Rng rng(1);
  const RdIdentification rd = identify_rd_heuristic2(circuit, options, &rng);
  std::printf("must-test paths: %llu (%.2f%% robust dependent)\n",
              static_cast<unsigned long long>(rd.classify.kept_paths),
              rd.classify.rd_percent);
  if (!rd.classify.completed) {
    const AbortReason reason = rd.classify.abort_reason == AbortReason::kNone
                                   ? AbortReason::kWorkBudget
                                   : rd.classify.abort_reason;
    if (!stats_json.empty()) {
      record_classify_metrics(rd.classify, global_metrics());
      GeneratedTestSet never_ran;
      never_ran.completed = false;
      never_ran.abort_reason = reason;
      write_json_file(stats_json, atpg_run_report(circuit.name(), rd,
                                                  never_ran,
                                                  &global_metrics()));
    }
    std::printf("status         : ABORTED (%s)\n", abort_reason_name(reason));
    return abort_exit_code(reason);
  }
  if (rd.classify.kept_paths > max_paths) {
    std::printf("too many must-test paths for ATPG (cap %llu); raise "
                "--max-paths\n",
                static_cast<unsigned long long>(max_paths));
    return 1;
  }
  std::vector<LogicalPath> paths;
  for (const auto& key : rd.classify.kept_keys) {
    LogicalPath path;
    path.path.leads.assign(key.begin(), key.end() - 1);
    path.final_pi_value = key.back() != 0;
    paths.push_back(std::move(path));
  }
  TestSetOptions testset_options;
  testset_options.guard = &guard;
  const GeneratedTestSet set = generate_test_set(circuit, paths,
                                                 testset_options);
  if (!stats_json.empty()) {
    record_classify_metrics(rd.classify, global_metrics());
    global_metrics().add_counter("atpg.robust_nodes", set.robust_nodes);
    global_metrics().add_counter("atpg.nonrobust_nodes", set.nonrobust_nodes);
    global_metrics().add_timer("atpg.wall", set.wall_seconds);
    write_json_file(stats_json, atpg_run_report(circuit.name(), rd, set,
                                                &global_metrics()));
  }
  std::printf(
      "test set       : %zu two-pattern tests\n"
      "robust         : %zu paths\n"
      "non-robust only: %zu paths\n"
      "undetected     : %zu paths (DFT candidates)\n"
      "robust coverage: %.2f%%\n",
      set.tests.size(), set.robust_count, set.nonrobust_count,
      set.undetected_count, set.robust_coverage_percent);
  if (!set.completed) {
    std::printf("status         : ABORTED (%s)\n",
                abort_reason_name(set.abort_reason));
    return abort_exit_code(set.abort_reason);
  }
  return 0;
}

int cmd_validate_json(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    return 1;
  }
  std::string text;
  char buffer[4096];
  std::size_t n;
  while ((n = std::fread(buffer, 1, sizeof buffer, file)) > 0)
    text.append(buffer, n);
  std::fclose(file);

  const JsonValue report = parse_json(text);  // throws with line:column
  const std::vector<std::string> problems = validate_run_report(report);
  for (const std::string& problem : problems)
    std::fprintf(stderr, "%s: %s\n", path.c_str(), problem.c_str());
  if (problems.empty())
    std::printf("%s: valid run report (schema_version %llu)\n", path.c_str(),
                static_cast<unsigned long long>(kRunReportSchemaVersion));
  return problems.empty() ? 0 : 1;
}

int cmd_gen(const std::string& name) {
  const Circuit circuit = load_circuit(name);
  std::fputs(write_bench_string(circuit).c_str(), stdout);
  return 0;
}

int cmd_verilog(const std::string& spec) {
  const Circuit circuit = load_circuit(spec);
  std::fputs(write_verilog_string(circuit).c_str(), stdout);
  return 0;
}

int cmd_dimacs(const std::string& spec) {
  const Circuit circuit = load_circuit(spec);
  std::fputs(write_dimacs_string(circuit).c_str(), stdout);
  return 0;
}

int cmd_report(const std::string& spec) {
  const Circuit circuit = load_circuit(spec);
  Rng rng(1);
  const InputSort sort = heuristic2_sort(circuit, &rng);
  const PathClassReport report = classify_report(circuit, sort);
  std::fputs(report_to_string(report).c_str(), stdout);
  return 0;
}

int cmd_select(const std::string& spec, int argc, char** argv) {
  std::size_t k = 10;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (starts_with(arg, "--k="))
      k = parse_size_strict(arg.substr(4), "--k");
    else {
      std::fprintf(stderr, "unknown select option: %s\n", arg.c_str());
      return 2;
    }
  }
  const Circuit circuit = load_circuit(spec);
  // Unit gate delays: path length as the delay estimate.
  DelayModel delays = DelayModel::zero(circuit);
  for (GateId id = 0; id < circuit.num_gates(); ++id)
    if (circuit.gate(id).type != GateType::kInput)
      delays.gate_delay[id] = 1.0;
  const TimingAnalysis timing(circuit, delays);
  const InputSort sort = heuristic1_sort(circuit);
  std::printf("critical delay (unit gates): %.0f\n", timing.critical_delay());
  std::printf("%zu longest non-RD logical paths:\n", k);
  std::size_t selected = 0;
  k_longest_paths(timing, 1u << 20,
                  [&](const PhysicalPath& physical, double delay) {
                    for (const bool final_value : {false, true}) {
                      const LogicalPath path{physical, final_value};
                      if (!path_survives_local_implications(
                              circuit, path, Criterion::kInputSort, &sort))
                        continue;
                      std::printf("  [delay %4.0f] %s\n", delay,
                                  path_to_string(circuit, path).c_str());
                      if (++selected >= k) return false;
                    }
                    return true;
                  });
  return 0;
}

int cmd_serve(int argc, char** argv) {
  serve::ServerConfig config;
  config.cancel = &g_cancel;
  std::string port_file;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (starts_with(arg, "--port=")) {
      const std::uint64_t port = parse_uint64_strict(arg.substr(7), "--port");
      if (port > 65535) throw std::invalid_argument("--port must be 0..65535");
      config.port = static_cast<std::uint16_t>(port);
    } else if (starts_with(arg, "--port-file=")) {
      port_file = arg.substr(12);
    } else if (starts_with(arg, "--workers=")) {
      config.num_workers = parse_size_strict(arg.substr(10), "--workers");
    } else if (starts_with(arg, "--cache-capacity=")) {
      config.cache_capacity =
          parse_size_strict(arg.substr(17), "--cache-capacity");
    } else if (starts_with(arg, "--cone-cache-dir=")) {
      config.cone_cache_dir =
          validate_directory_flag(arg.substr(17), "--cone-cache-dir");
    } else {
      std::fprintf(stderr, "unknown serve option: %s\n", arg.c_str());
      return 2;
    }
  }
  serve::Server server(config);
  server.start();
  std::printf("serving on 127.0.0.1:%u\n",
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);
  if (!port_file.empty()) {
    // Write-then-rename so a watcher never reads a half-written file.
    const std::string tmp = port_file + ".tmp";
    std::ofstream out(tmp);
    out << server.port() << "\n";
    out.close();
    if (!out || std::rename(tmp.c_str(), port_file.c_str()) != 0) {
      std::fprintf(stderr, "error: cannot write %s\n", port_file.c_str());
      server.request_stop();
      server.wait();
      return 1;
    }
  }
  const bool cancelled = server.wait();
  const serve::Server::Stats stats = server.stats();
  std::printf("served %llu requests on %llu connections\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.connections));
  if (cancelled) {
    std::printf("status         : ABORTED (cancelled)\n");
    return abort_exit_code(AbortReason::kCancelled);
  }
  return 0;
}

/// Resolves the request command's port operand: a literal port or
/// "@file" naming a file holding one (what serve --port-file wrote).
std::uint16_t resolve_port(const std::string& spec) {
  std::string text = spec;
  if (!spec.empty() && spec[0] == '@') {
    std::ifstream in(spec.substr(1));
    if (!in)
      throw std::invalid_argument("cannot read port file " + spec.substr(1));
    std::getline(in, text);
  }
  const std::uint64_t port =
      parse_uint64_strict(std::string(trim(text)), "port");
  if (port == 0 || port > 65535)
    throw std::invalid_argument("port must be 1..65535");
  return static_cast<std::uint16_t>(port);
}

/// One blocking frame exchange with a daemon on 127.0.0.1:port.
std::string exchange_frame(std::uint16_t port, const std::string& payload) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0)
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const std::string detail = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("cannot connect to 127.0.0.1:" +
                             std::to_string(port) + ": " + detail);
  }
  const std::string frame = serve::encode_frame(payload);
  std::size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n =
        ::send(fd, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      ::close(fd);
      throw std::runtime_error("send failed");
    }
    sent += static_cast<std::size_t>(n);
  }
  serve::FrameDecoder decoder;
  std::string response;
  char buffer[16384];
  for (;;) {
    const serve::FrameDecoder::Status status = decoder.next(&response);
    if (status == serve::FrameDecoder::Status::kFrame) break;
    if (status == serve::FrameDecoder::Status::kError) {
      ::close(fd);
      throw std::runtime_error("response framing error: " + decoder.error());
    }
    const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ::close(fd);
      throw std::runtime_error("connection closed before a response arrived");
    }
    decoder.feed(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

int cmd_request(const std::string& port_spec, int argc, char** argv) {
  std::string op = "classify";
  std::string circuit_spec;
  std::string stats_json;
  JsonValue request = JsonValue::object();
  request.set("op", JsonValue::null());  // placeholder, keeps key order
  request.set("id", JsonValue::number(std::uint64_t{1}));
  JsonValue guard = JsonValue::object();
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (starts_with(arg, "--op="))
      op = arg.substr(5);
    else if (starts_with(arg, "--circuit="))
      circuit_spec = arg.substr(10);
    else if (starts_with(arg, "--heuristic="))
      request.set("heuristic", JsonValue::string(arg.substr(12)));
    else if (starts_with(arg, "--work-limit="))
      request.set("work_limit",
                  JsonValue::number(
                      parse_uint64_strict(arg.substr(13), "--work-limit")));
    else if (starts_with(arg, "--threads="))
      request.set(
          "threads",
          JsonValue::number(parse_uint64_strict(arg.substr(10), "--threads")));
    else if (starts_with(arg, "--max-paths="))
      request.set("max_paths",
                  JsonValue::number(
                      parse_uint64_strict(arg.substr(12), "--max-paths")));
    else if (arg == "--incremental")
      request.set("incremental", JsonValue::boolean(true));
    else if (starts_with(arg, "--deadline-ms="))
      guard.set("deadline_ms",
                JsonValue::number(
                    parse_double_strict(arg.substr(14), "--deadline-ms")));
    else if (starts_with(arg, "--max-memory-mb="))
      guard.set("max_memory_mb",
                JsonValue::number(parse_uint64_strict(arg.substr(16),
                                                      "--max-memory-mb")));
    else if (starts_with(arg, "--inject-abort-after="))
      guard.set("inject_abort_after",
                JsonValue::number(parse_uint64_strict(
                    arg.substr(21), "--inject-abort-after")));
    else if (starts_with(arg, "--inject-abort-reason="))
      guard.set("inject_abort_reason", JsonValue::string(arg.substr(22)));
    else if (starts_with(arg, "--stats-json="))
      stats_json = arg.substr(13);
    else {
      std::fprintf(stderr, "unknown request option: %s\n", arg.c_str());
      return 2;
    }
  }
  request.set("op", JsonValue::string(op));
  if (guard.members().size() > 0) request.set("guard", std::move(guard));
  if (!circuit_spec.empty()) {
    JsonValue circuit = JsonValue::object();
    // Builtins travel by name (the daemon renders them); files travel
    // as inline .bench text, so the daemon needs no filesystem access.
    const bool builtin =
        circuit_spec == "example" || circuit_spec == "c17" ||
        (!circuit_spec.empty() && circuit_spec[0] == 'c' &&
         circuit_spec.find('.') == std::string::npos);
    if (builtin) {
      circuit.set("builtin", JsonValue::string(circuit_spec));
    } else {
      std::ifstream in(circuit_spec);
      if (!in)
        throw std::invalid_argument("cannot read circuit file " +
                                    circuit_spec);
      std::ostringstream text;
      text << in.rdbuf();
      circuit.set("name", JsonValue::string(circuit_spec));
      circuit.set("bench", JsonValue::string(text.str()));
    }
    request.set("circuit", std::move(circuit));
  }

  const std::uint16_t port = resolve_port(port_spec);
  const std::string response_text = exchange_frame(port, request.to_string());
  const JsonValue response = parse_json(response_text);
  const std::vector<std::string> problems = validate_run_report(response);
  for (const std::string& problem : problems)
    std::fprintf(stderr, "response: %s\n", problem.c_str());
  if (!stats_json.empty()) write_json_file(stats_json, response);
  std::fputs(response_text.c_str(), stdout);
  if (response_text.empty() || response_text.back() != '\n')
    std::fputc('\n', stdout);
  if (!problems.empty()) return 1;

  // Exit-code parity with the one-shot commands: 0 for a completed job
  // or ack, the abort code for a typed abort, 1 for a refusal.
  const JsonValue* kind = response.find("kind");
  const std::string kind_name =
      kind != nullptr && kind->is_string() ? kind->as_string() : "";
  if (kind_name == "serve_error") {
    const JsonValue* error = response.find("error");
    const JsonValue* message =
        error != nullptr && error->is_object() ? error->find("message")
                                               : nullptr;
    std::fprintf(stderr, "error: %s\n",
                 message != nullptr && message->is_string()
                     ? message->as_string().c_str()
                     : "request refused");
    return 1;
  }
  const JsonValue* classify = response.find("classify");
  if (classify != nullptr && classify->is_object()) {
    const JsonValue* completed = classify->find("completed");
    if (completed != nullptr && completed->is_bool() &&
        !completed->as_bool()) {
      const JsonValue* reason = classify->find("abort_reason");
      const std::string reason_name =
          reason != nullptr && reason->is_string() ? reason->as_string()
                                                   : "work_budget";
      std::printf("status         : ABORTED (%s)\n", reason_name.c_str());
      return reason_name == "cancelled" ? 130 : 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s stats|classify|atpg|gen|report|select|verilog|dimacs|validate-json <circuit|file> [options]\n"
                 "       %s serve [--port=N] [--port-file=F] [--workers=N] [--cache-capacity=N] [--cone-cache-dir=D]\n"
                 "       %s request <port|@port-file> [--op=OP] [--circuit=SPEC] [options]\n",
                 argv[0], argv[0], argv[0]);
    return 2;
  }
  const std::string command = argv[1];
  // Cooperative cancellation: the handler only flips an atomic token;
  // engines (and the daemon's accept loop) observe it at their next
  // checkpoint, unwind, and the partial --stats-json still gets
  // written.
  std::signal(SIGINT, handle_sigint);
  try {
    if (command == "serve") return cmd_serve(argc - 2, argv + 2);
    if (argc < 3) {
      std::fprintf(stderr, "usage: %s %s <circuit|file|port> [options]\n",
                   argv[0], command.c_str());
      return 2;
    }
    const std::string spec = argv[2];
    if (command == "request") return cmd_request(spec, argc - 3, argv + 3);
    if (command == "stats") return cmd_stats(spec);
    if (command == "validate-json") return cmd_validate_json(spec);
    if (command == "classify") return cmd_classify(spec, argc - 3, argv + 3);
    if (command == "atpg") return cmd_atpg(spec, argc - 3, argv + 3);
    if (command == "gen") return cmd_gen(spec);
    if (command == "report") return cmd_report(spec);
    if (command == "select") return cmd_select(spec, argc - 3, argv + 3);
    if (command == "verilog") return cmd_verilog(spec);
    if (command == "dimacs") return cmd_dimacs(spec);
  } catch (const std::invalid_argument& error) {
    // Bad user input (malformed flag value, out-of-range number):
    // usage error, same exit code as an unknown flag.
    std::fprintf(stderr, "usage error: %s\n", error.what());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  return 2;
}
