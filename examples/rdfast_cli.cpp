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
#include "cache/cone_cache.h"
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

/// Consumes a recognized resource or fault-injection flag of classify
/// and atpg into `spec` (or `sigint_after`); false if `arg` is not one.
/// Strict parsing: a negative, overflowing or garbage-suffixed value is
/// a usage error (std::invalid_argument → exit 2), never a silent
/// truncation.
bool parse_guard_flag(const std::string& arg, serve::GuardSpec* spec,
                      std::uint64_t* sigint_after) {
  if (starts_with(arg, "--deadline-ms="))
    spec->deadline_ms = parse_double_strict(arg.substr(14), "--deadline-ms");
  else if (starts_with(arg, "--max-memory-mb="))
    spec->max_memory_mb =
        parse_uint64_strict(arg.substr(16), "--max-memory-mb");
  else if (starts_with(arg, "--inject-abort-after="))
    spec->inject_abort_after =
        parse_uint64_strict(arg.substr(21), "--inject-abort-after");
  else if (starts_with(arg, "--inject-abort-reason="))
    spec->inject_abort_reason = arg.substr(22);
  else if (starts_with(arg, "--inject-sigint-after="))
    *sigint_after =
        parse_uint64_strict(arg.substr(22), "--inject-sigint-after");
  else
    return false;
  return true;
}

/// Exit code of a run report or serve response, printing the status
/// line of an aborted run or the message of a refusal: 0 for a
/// completed run or an ack, 1 for a refusal or an abort, 130 for a
/// cancelled run.  The report must validate (an aborted block names
/// its reason).
int report_exit_code(const JsonValue& report) {
  const JsonValue* kind = report.find("kind");
  if (kind != nullptr && kind->is_string() &&
      kind->as_string() == "serve_error") {
    const JsonValue* error = report.find("error");
    const JsonValue* message =
        error != nullptr && error->is_object() ? error->find("message")
                                               : nullptr;
    std::fprintf(stderr, "error: %s\n",
                 message != nullptr && message->is_string()
                     ? message->as_string().c_str()
                     : "request refused");
    return 1;
  }
  for (const char* block : {"classify", "atpg"}) {
    const JsonValue* run = report.find(block);
    if (run == nullptr || !run->is_object()) continue;
    const JsonValue* completed = run->find("completed");
    if (completed == nullptr || !completed->is_bool() || completed->as_bool())
      continue;
    const std::string reason = run->find("abort_reason")->as_string();
    std::printf("status         : ABORTED (%s)\n", reason.c_str());
    return reason == "cancelled" ? 130 : 1;
  }
  return 0;
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

/// A job on the circuit `spec` names (a builtin or a .bench file).
serve::Job circuit_job(const std::string& spec) {
  serve::Job job;
  job.circuit_name = spec;
  job.netlist_text = spec;  // content identity; a one-shot cache never reuses
  job.load = [spec] { return load_circuit(spec); };
  return job;
}

/// Runs `job` on a one-shot Session under the guard `guard_spec` asks
/// for, chained onto SIGINT, with --inject-sigint-after armed on it.
serve::JobResult run_job(const serve::Job& job, bool atpg,
                         const serve::GuardSpec& guard_spec,
                         std::uint64_t sigint_after,
                         ConeCacheStore* cone_cache = nullptr) {
  serve::SessionConfig config;
  config.cone_cache = cone_cache;
  config.cancel = &g_cancel;
  serve::Session session(config);
  ExecGuard guard(guard_spec.options(config.cancel));
  guard_spec.arm(guard);
  if (sigint_after != 0)
    guard.inject_at_check(sigint_after, [] { std::raise(SIGINT); });
  return atpg ? session.atpg(job, guard) : session.classify(job, guard);
}

int cmd_stats(const std::string& spec) {
  const Circuit circuit = load_circuit(spec);
  std::fputs(stats_to_string(compute_stats(circuit)).c_str(), stdout);
  return 0;
}

int cmd_classify(const std::string& spec, int argc, char** argv) {
  serve::Job job = circuit_job(spec);
  std::string stats_json;
  std::string cache_dir;
  CacheFaultInjection cache_inject;
  serve::GuardSpec guard_spec;
  std::uint64_t sigint_after = 0;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (starts_with(arg, "--heuristic="))
      job.heuristic = arg.substr(12);
    else if (starts_with(arg, "--engine="))
      job.engine = arg.substr(9);
    else if (starts_with(arg, "--work-limit="))
      job.work_limit = parse_uint64_strict(arg.substr(13), "--work-limit");
    else if (starts_with(arg, "--threads="))
      job.threads = parse_size_strict(arg.substr(10), "--threads");
    else if (starts_with(arg, "--stats-json="))
      stats_json = arg.substr(13);
    else if (arg == "--incremental")
      job.incremental = true;
    else if (starts_with(arg, "--cache-dir=")) {
      // Validated before any work: a bad directory is a usage error
      // naming the flag, not a mid-run I/O failure.
      cache_dir = validate_directory_flag(arg.substr(12), "--cache-dir");
      job.incremental = true;
    } else if (starts_with(arg, "--inject-cache-truncate-after="))
      cache_inject.truncate_after_bytes = parse_uint64_strict(
          arg.substr(30), "--inject-cache-truncate-after");
    else if (starts_with(arg, "--inject-cache-flip-bit="))
      cache_inject.flip_bit =
          parse_uint64_strict(arg.substr(24), "--inject-cache-flip-bit");
    else if (starts_with(arg, "--inject-cache-crash-after="))
      cache_inject.crash_after_bytes = parse_uint64_strict(
          arg.substr(27), "--inject-cache-crash-after");
    else if (!parse_guard_flag(arg, &guard_spec, &sigint_after)) {
      std::fprintf(stderr, "unknown classify option: %s\n", arg.c_str());
      return 2;
    }
  }
  if (!job.incremental && (cache_inject.truncate_after_bytes != 0 ||
                           cache_inject.flip_bit != 0 ||
                           cache_inject.crash_after_bytes != 0)) {
    std::fprintf(stderr,
                 "usage error: --inject-cache-* requires --incremental\n");
    return 2;
  }
  serve::validate_job(job);  // usage errors before the cache is touched
  ConeCacheStore cone_store;
  if (!cache_dir.empty()) cone_store.load(cache_dir);
  Stopwatch watch;
  const serve::JobResult out =
      run_job(job, /*atpg=*/false, guard_spec, sigint_after, &cone_store);
  // Persist before reporting: a crash-injection run must leave the
  // same artifacts a real crash would, nothing more.
  if (!cache_dir.empty()) cone_store.save(cache_dir, cache_inject);
  if (!stats_json.empty()) write_json_file(stats_json, out.report);

  const ClassifyResult& result = out.rd.classify;
  std::string method_text = job.heuristic == "fus"
                                ? "FUS baseline [2]"
                                : "Heuristic " + job.heuristic;
  if (out.resilient)
    method_text = "resilient ladder (" +
                  std::string(engine_rung_name(out.resilient->engine)) + ")";
  else if (out.eco)
    method_text = "incremental (" + method_text + ")";
  std::printf("circuit        : %s\n", out.circuit_name.c_str());
  std::printf("method         : %s\n", method_text.c_str());
  std::printf("logical paths  : %s\n",
              result.total_logical.to_decimal_grouped().c_str());
  if (out.eco) {
    std::printf("cones          : %llu (%llu cached, %llu reclassified)\n",
                static_cast<unsigned long long>(out.eco->cones),
                static_cast<unsigned long long>(out.eco->hits),
                static_cast<unsigned long long>(out.eco->misses));
    const std::uint64_t recovered = cone_store.stats().recovery.total();
    if (recovered != 0)
      std::printf("cache recovery : %llu damaged artifact(s) survived\n",
                  static_cast<unsigned long long>(recovered));
  }
  if (!result.completed) return report_exit_code(out.report);
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
  serve::Job job = circuit_job(spec);
  std::string stats_json;
  serve::GuardSpec guard_spec;
  std::uint64_t sigint_after = 0;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (starts_with(arg, "--max-paths="))
      job.max_paths = parse_uint64_strict(arg.substr(12), "--max-paths");
    else if (starts_with(arg, "--threads="))
      job.threads = parse_size_strict(arg.substr(10), "--threads");
    else if (starts_with(arg, "--stats-json="))
      stats_json = arg.substr(13);
    else if (!parse_guard_flag(arg, &guard_spec, &sigint_after)) {
      std::fprintf(stderr, "unknown atpg option: %s\n", arg.c_str());
      return 2;
    }
  }
  const serve::JobResult out =
      run_job(job, /*atpg=*/true, guard_spec, sigint_after);
  std::printf("must-test paths: %llu (%.2f%% robust dependent)\n",
              static_cast<unsigned long long>(out.rd.classify.kept_paths),
              out.rd.classify.rd_percent);
  if (out.over_path_cap) {
    std::printf("too many must-test paths for ATPG (cap %llu); raise "
                "--max-paths\n",
                static_cast<unsigned long long>(job.max_paths));
    return 1;
  }
  if (!stats_json.empty()) write_json_file(stats_json, out.report);
  if (!out.rd.classify.completed) return report_exit_code(out.report);
  const GeneratedTestSet& set = out.test_set;
  std::printf(
      "test set       : %zu two-pattern tests\n"
      "robust         : %zu paths\n"
      "non-robust only: %zu paths\n"
      "undetected     : %zu paths (DFT candidates)\n"
      "robust coverage: %.2f%%\n",
      set.tests.size(), set.robust_count, set.nonrobust_count,
      set.undetected_count, set.robust_coverage_percent);
  return report_exit_code(out.report);
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
    return 130;
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
    else if (starts_with(arg, "--engine="))
      request.set("engine", JsonValue::string(arg.substr(9)));
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
  // Exit-code parity with the one-shot commands.
  return report_exit_code(response);
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
