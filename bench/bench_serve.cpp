// bench_serve — load generator for the `rdfast serve` daemon
// (DESIGN.md §12, EXPERIMENTS.md).
//
// Starts an in-process Server on an ephemeral loopback port, replays a
// mixed request stream (several circuits × heuristics, plus control
// ops) over multiple concurrent client connections, and reports the
// serving headline numbers: p50/p99 request latency, throughput, and
// the compiled-circuit cache hit rate.  Two correctness verdicts ride
// along and gate scripts/run_bench.sh --serve:
//
//   * identical    — for every distinct (circuit, heuristic) in the
//     mix, the daemon's response carries exactly the same
//     deterministic classify fields as a one-shot Session run with no
//     cache (the CLI path).  The cache must change *when* work
//     happens, never what comes out.
//   * fault_aborted — a fault-injected request (guard trip at the Nth
//     check) aborts with its typed reason while the surrounding
//     traffic completes normally; one tenant's QoS trip must not leak
//     into anyone else's answer.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "io/json_writer.h"
#include "serve/frame.h"
#include "serve/server.h"
#include "serve/session.h"
#include "util/stopwatch.h"

namespace {

using namespace rd;

/// One persistent client connection speaking the frame protocol.
class Client {
 public:
  explicit Client(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("client socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error(std::string("client connect failed: ") +
                               std::strerror(errno));
    }
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Blocking request/response round trip.
  std::string exchange(const std::string& payload) {
    const std::string frame = serve::encode_frame(payload);
    std::size_t sent = 0;
    while (sent < frame.size()) {
      const ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        throw std::runtime_error("client send failed");
      }
      sent += static_cast<std::size_t>(n);
    }
    std::string response;
    char buffer[16384];
    for (;;) {
      const serve::FrameDecoder::Status status = decoder_.next(&response);
      if (status == serve::FrameDecoder::Status::kFrame) return response;
      if (status == serve::FrameDecoder::Status::kError)
        throw std::runtime_error("client framing error: " + decoder_.error());
      const ssize_t n = ::recv(fd_, buffer, sizeof buffer, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("server closed the connection");
      decoder_.feed(buffer, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  serve::FrameDecoder decoder_;
};

/// The deterministic projection of a job response: everything bit-
/// identical across cache states, thread counts and lane widths —
/// i.e. the whole classify object minus wall-clock fields and the
/// schedule-dependent worker and replay-cache counters — plus the
/// method.  Two responses serve identical results iff these strings
/// match.
std::string deterministic_fields(const JsonValue& report) {
  const JsonValue* classify = report.find("classify");
  if (classify == nullptr || !classify->is_object()) return "<no classify>";
  JsonValue projected = JsonValue::object();
  const JsonValue* method = report.find("method");
  if (method != nullptr) projected.set("method", *method);
  for (const auto& [key, value] : classify->members()) {
    if (key == "wall_seconds" || key == "workers" || key == "memo") continue;
    projected.set(key, value);
  }
  const JsonValue* prerun = report.find("prerun_work");
  if (prerun != nullptr) projected.set("prerun_work", *prerun);
  return projected.to_string();
}

std::string classify_request(std::uint64_t id, const std::string& builtin,
                             const std::string& heuristic) {
  JsonValue request = JsonValue::object();
  request.set("op", JsonValue::string("classify"));
  request.set("id", JsonValue::number(id));
  JsonValue circuit = JsonValue::object();
  circuit.set("builtin", JsonValue::string(builtin));
  request.set("circuit", std::move(circuit));
  request.set("heuristic", JsonValue::string(heuristic));
  return request.to_string();
}

}  // namespace

int main(int argc, char** argv) {
  bench::Options options = bench::parse_options(argc, argv);
  // The acceptance floor is ≥2000 replayed requests even for the
  // --quick smoke run; the full run doubles the stream.
  const std::size_t total_requests = options.quick ? 2200 : 4400;
  const std::size_t num_connections = 4;

  // The request mix: small builtins × heuristics.  8 distinct cache
  // keys over thousands of requests puts the steady-state hit rate
  // far above the 95% gate while still exercising eviction-free
  // multi-entry behavior.
  const std::vector<std::pair<std::string, std::string>> mix = {
      {"c17", "1"},     {"c17", "2"},     {"c17", "fus"}, {"c17", "inverse"},
      {"example", "1"}, {"example", "2"}, {"example", "fus"},
      {"example", "inverse"},
  };

  serve::ServerConfig config;
  config.num_workers = num_connections;
  serve::Server server(config);
  server.start();
  std::printf("bench_serve: daemon on 127.0.0.1:%u, %zu requests over %zu "
              "connections\n",
              static_cast<unsigned>(server.port()), total_requests,
              num_connections);

  // One-shot references: the same requests executed through a Session
  // with no cache — the daemon must match these bit-for-bit.
  std::map<std::string, std::string> reference;
  {
    serve::SessionConfig one_shot;
    serve::Session session(one_shot);
    for (const auto& [builtin, heuristic] : mix) {
      const serve::RequestOutcome outcome =
          session.handle(classify_request(1, builtin, heuristic));
      reference[builtin + "/" + heuristic] =
          deterministic_fields(outcome.response);
    }
  }

  std::mutex merge_mutex;
  std::vector<double> latencies;
  latencies.reserve(total_requests);
  bool identical = true;
  std::string first_mismatch;
  std::uint64_t errors = 0;

  Stopwatch wall;
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < num_connections; ++c) {
    clients.emplace_back([&, c] {
      Client client(server.port());
      std::vector<double> local_latencies;
      bool local_identical = true;
      std::string local_mismatch;
      std::uint64_t local_errors = 0;
      const std::size_t share = total_requests / num_connections;
      for (std::size_t i = 0; i < share; ++i) {
        const auto& [builtin, heuristic] = mix[(c * share + i) % mix.size()];
        Stopwatch latency;
        std::string response_text;
        try {
          response_text = client.exchange(
              classify_request(c * share + i, builtin, heuristic));
        } catch (const std::exception&) {
          ++local_errors;
          continue;
        }
        local_latencies.push_back(latency.elapsed_seconds());
        const JsonValue response = parse_json(response_text);
        const std::string fields = deterministic_fields(response);
        const std::string& expected =
            reference[builtin + "/" + heuristic];
        if (fields != expected && local_identical) {
          local_identical = false;
          local_mismatch = builtin + "/" + heuristic;
        }
      }
      std::lock_guard<std::mutex> lock(merge_mutex);
      latencies.insert(latencies.end(), local_latencies.begin(),
                       local_latencies.end());
      if (!local_identical && identical) {
        identical = false;
        first_mismatch = local_mismatch;
      }
      errors += local_errors;
    });
  }

  // The QoS probe rides along with the load: a request whose guard is
  // deterministically tripped mid-run must come back as a typed abort
  // while everyone else's answers stay bit-identical.
  bool fault_aborted = false;
  std::string fault_reason;
  {
    Client fault_client(server.port());
    JsonValue request = JsonValue::object();
    request.set("op", JsonValue::string("classify"));
    request.set("id", JsonValue::number(std::uint64_t{999999}));
    JsonValue circuit = JsonValue::object();
    circuit.set("builtin", JsonValue::string("c432"));
    request.set("circuit", std::move(circuit));
    request.set("heuristic", JsonValue::string("2"));
    JsonValue guard = JsonValue::object();
    guard.set("inject_abort_after", JsonValue::number(std::uint64_t{1000}));
    guard.set("inject_abort_reason", JsonValue::string("deadline"));
    request.set("guard", std::move(guard));
    const JsonValue response =
        parse_json(fault_client.exchange(request.to_string()));
    const JsonValue* classify = response.find("classify");
    if (classify != nullptr && classify->is_object()) {
      const JsonValue* completed = classify->find("completed");
      const JsonValue* reason = classify->find("abort_reason");
      if (completed != nullptr && completed->is_bool() &&
          !completed->as_bool() && reason != nullptr && reason->is_string()) {
        fault_aborted = true;
        fault_reason = reason->as_string();
      }
    }
  }

  for (std::thread& client : clients) client.join();
  const double wall_seconds = wall.elapsed_seconds();

  const serve::CacheStats cache = server.cache().stats();
  server.request_stop();
  server.wait();

  std::sort(latencies.begin(), latencies.end());
  const auto percentile = [&](double p) {
    if (latencies.empty()) return 0.0;
    const std::size_t index = std::min(
        latencies.size() - 1,
        static_cast<std::size_t>(p * static_cast<double>(latencies.size())));
    return latencies[index];
  };
  const double p50 = percentile(0.50);
  const double p99 = percentile(0.99);
  const std::uint64_t lookups = cache.hits + cache.misses;
  const double hit_rate =
      lookups == 0 ? 0.0
                   : static_cast<double>(cache.hits) /
                         static_cast<double>(lookups);
  const double throughput =
      wall_seconds > 0
          ? static_cast<double>(latencies.size()) / wall_seconds
          : 0.0;

  std::printf("requests       : %zu ok, %llu errors\n", latencies.size(),
              static_cast<unsigned long long>(errors));
  std::printf("p50 latency    : %.3f ms\n", p50 * 1e3);
  std::printf("p99 latency    : %.3f ms\n", p99 * 1e3);
  std::printf("throughput     : %.0f req/s\n", throughput);
  std::printf("cache          : %llu hits / %llu lookups (%.2f%% hit rate)\n",
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(lookups), hit_rate * 100.0);
  const std::string mismatch_note =
      identical ? "" : " (first mismatch " + first_mismatch + ")";
  std::printf("identical      : %s%s\n", identical ? "yes" : "NO",
              mismatch_note.c_str());
  std::printf("fault aborted  : %s (%s)\n", fault_aborted ? "yes" : "NO",
              fault_reason.c_str());

  bench::BenchReport report(options, "serve");
  JsonValue row = JsonValue::object();
  row.set("kind", JsonValue::string("mixed"));
  row.set("requests", JsonValue::number(
                          static_cast<std::uint64_t>(latencies.size())));
  row.set("connections",
          JsonValue::number(static_cast<std::uint64_t>(num_connections)));
  row.set("errors", JsonValue::number(errors));
  row.set("p50_seconds", JsonValue::number(p50));
  row.set("p99_seconds", JsonValue::number(p99));
  row.set("requests_per_sec", JsonValue::number(throughput));
  row.set("cache_hits", JsonValue::number(cache.hits));
  row.set("cache_misses", JsonValue::number(cache.misses));
  row.set("cache_hit_rate", JsonValue::number(hit_rate));
  row.set("identical", JsonValue::boolean(identical));
  row.set("fault_aborted", JsonValue::boolean(fault_aborted));
  row.set("fault_reason", JsonValue::string(fault_reason));
  report.add_row(std::move(row));
  report.write();

  const bool ok = identical && fault_aborted && errors == 0;
  return ok ? 0 : 1;
}
