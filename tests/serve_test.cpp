// Unit and end-to-end tests for the serve layer: the frame codec, the
// compiled-circuit cache (including the racing-clients build-once
// contract, exercised under TSAN via the tsan label), the job queue,
// the session request pipeline, and a live Server spoken to over a
// real loopback socket.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/heuristics.h"
#include "gen/examples.h"
#include "gen/iscas_like.h"
#include "io/bench_io.h"
#include "io/json_writer.h"
#include "io/run_report.h"
#include "serve/circuit_cache.h"
#include "serve/frame.h"
#include "serve/job_queue.h"
#include "serve/server.h"
#include "serve/session.h"

namespace rd::serve {
namespace {

// ---------------------------------------------------------------- frames

TEST(Frame, RoundTrip) {
  const std::string payload = "{\"op\": \"ping\"}";
  const std::string frame = encode_frame(payload);
  ASSERT_EQ(frame.size(), payload.size() + 4);
  FrameDecoder decoder;
  decoder.feed(frame.data(), frame.size());
  std::string out;
  ASSERT_EQ(decoder.next(&out), FrameDecoder::Status::kFrame);
  EXPECT_EQ(out, payload);
  EXPECT_EQ(decoder.next(&out), FrameDecoder::Status::kNeedMore);
}

TEST(Frame, ByteAtATimeAndBackToBack) {
  // The decoder must assemble frames regardless of how the transport
  // fragments them — including several frames arriving in one read.
  const std::string a = encode_frame("first");
  const std::string b = encode_frame("second");
  FrameDecoder decoder;
  std::string wire = a + b;
  std::string out;
  for (char byte : wire) {
    decoder.feed(&byte, 1);
  }
  ASSERT_EQ(decoder.next(&out), FrameDecoder::Status::kFrame);
  EXPECT_EQ(out, "first");
  ASSERT_EQ(decoder.next(&out), FrameDecoder::Status::kFrame);
  EXPECT_EQ(out, "second");
  EXPECT_EQ(decoder.next(&out), FrameDecoder::Status::kNeedMore);
}

TEST(Frame, EmptyPayload) {
  FrameDecoder decoder;
  const std::string frame = encode_frame("");
  decoder.feed(frame.data(), frame.size());
  std::string out = "sentinel";
  ASSERT_EQ(decoder.next(&out), FrameDecoder::Status::kFrame);
  EXPECT_EQ(out, "");
}

TEST(Frame, OversizedFrameIsAPoisoningError) {
  FrameDecoder decoder(/*max_frame_bytes=*/16);
  const std::string frame = encode_frame(std::string(17, 'x'));
  decoder.feed(frame.data(), frame.size());
  std::string out;
  EXPECT_EQ(decoder.next(&out), FrameDecoder::Status::kError);
  EXPECT_NE(decoder.error().find("ceiling"), std::string::npos);
  // Dead decoders stay dead — the stream cannot be resynchronized.
  const std::string good = encode_frame("ok");
  decoder.feed(good.data(), good.size());
  EXPECT_EQ(decoder.next(&out), FrameDecoder::Status::kError);
}

// ----------------------------------------------------------------- cache

std::string c17_text() { return write_bench_string(c17()); }

TEST(CircuitCache, MissThenHitSharesOneEntry) {
  CircuitCache cache(4);
  ClassifyOptions build;
  bool hit = true;
  const auto first = cache.get(c17_text(), "c17", "2", build, &hit);
  EXPECT_FALSE(hit);
  ASSERT_NE(first, nullptr);
  ASSERT_NE(first->compiled, nullptr);
  EXPECT_TRUE(first->compiled->has_low_order_tables());
  EXPECT_EQ(&first->compiled->source(), &first->circuit);

  const auto second = cache.get(c17_text(), "c17", "2", build, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(first.get(), second.get());

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(CircuitCache, DistinctSortSpecsAreDistinctEntries) {
  CircuitCache cache(8);
  ClassifyOptions build;
  const auto h2 = cache.get(c17_text(), "c17", "2", build);
  const auto fus = cache.get(c17_text(), "c17", "fus", build);
  EXPECT_NE(h2.get(), fus.get());
  EXPECT_TRUE(h2->sort.has_value());
  EXPECT_FALSE(fus->sort.has_value());
  EXPECT_FALSE(fus->compiled->has_low_order_tables());
}

TEST(CircuitCache, RacingClientsBuildExactlyOnce) {
  // N threads ask for the same key concurrently: exactly one build
  // happens, everyone gets the same fully-constructed entry, and no
  // thread can observe a partial one (entry fields are only published
  // after construction completes).  The tsan label runs this under
  // ThreadSanitizer.
  CircuitCache cache(4);
  const std::string text = c17_text();
  constexpr int kThreads = 8;
  std::vector<CircuitCache::EntryPtr> entries(kThreads);
  std::atomic<int> go{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      go.fetch_add(1);
      while (go.load() < kThreads) {
      }  // start together to maximize the race window
      ClassifyOptions build;
      entries[t] = cache.get(text, "c17", "2", build);
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_NE(entries[t], nullptr);
    EXPECT_EQ(entries[t].get(), entries[0].get());
    ASSERT_NE(entries[t]->compiled, nullptr);
    EXPECT_TRUE(entries[t]->compiled->has_low_order_tables());
  }
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits + stats.misses, static_cast<std::uint64_t>(kThreads));
}

TEST(CircuitCache, LruEvictionByCapacity) {
  CircuitCache cache(2);
  ClassifyOptions build;
  const std::string text = c17_text();
  cache.get(text, "c17", "1", build);
  cache.get(text, "c17", "2", build);
  // Touch "1" so "2" is the least recently used.
  cache.get(text, "c17", "1", build);
  cache.get(text, "c17", "fus", build);  // evicts "2"
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);

  bool hit = true;
  cache.get(text, "c17", "1", build, &hit);
  EXPECT_TRUE(hit);  // survived
  cache.get(text, "c17", "2", build, &hit);
  EXPECT_FALSE(hit);  // was evicted, rebuilt
}

TEST(CircuitCache, EvictedEntryKeepsItsAdjacency) {
  // The entry's CompiledCircuit borrows its Circuit's adjacency arrays,
  // so a job holding an evicted entry must still classify on valid
  // memory, identically to a private compile.
  const std::string text = write_bench_string(make_benchmark("c432"));
  ClassifyOptions build;
  CircuitCache::EntryPtr held;
  {
    CircuitCache cache(1);
    held = cache.get(text, "c432", "1", build);
    cache.get(c17_text(), "c17", "1", build);  // evicts the c432 entry
    EXPECT_EQ(cache.stats().evictions, 1u);
  }
  ASSERT_TRUE(held->sort.has_value());
  ClassifyOptions options;
  options.criterion = Criterion::kInputSort;
  options.sort = &*held->sort;
  options.compiled = held->compiled.get();
  const ClassifyResult borrowed = classify_paths(held->circuit, options);
  options.compiled = nullptr;
  const ClassifyResult fresh = classify_paths(held->circuit, options);
  EXPECT_TRUE(borrowed.completed);
  EXPECT_GT(borrowed.kept_paths, 0u);
  EXPECT_EQ(borrowed.kept_paths, fresh.kept_paths);
  EXPECT_EQ(borrowed.work, fresh.work);
}

TEST(CircuitCache, FailedBuildsPropagateAndAreNotCached) {
  CircuitCache cache(4);
  ClassifyOptions build;
  EXPECT_THROW(cache.get("this is not a netlist", "bad", "2", build),
               std::runtime_error);
  EXPECT_EQ(cache.stats().failures, 1u);
  EXPECT_EQ(cache.stats().entries, 0u);
  // An unknown sort spec is the client's bug, typed accordingly.
  EXPECT_THROW(cache.get(c17_text(), "c17", "3", build),
               std::invalid_argument);
  // The failed key is not poisoned: a good request builds fresh.
  bool hit = true;
  const auto entry = cache.get(c17_text(), "c17", "2", build, &hit);
  EXPECT_FALSE(hit);
  EXPECT_NE(entry, nullptr);
}

TEST(CircuitCache, GuardAbortDuringPrerunsIsTypedAndNotCached) {
  CircuitCache cache(4);
  ExecGuard guard;
  guard.inject_trip_at(10, AbortReason::kDeadline);
  ClassifyOptions build;
  build.guard = &guard;
  try {
    cache.get(c17_text(), "c17", "2", build);
    FAIL() << "expected GuardTrippedError";
  } catch (const GuardTrippedError& error) {
    EXPECT_EQ(error.reason(), AbortReason::kDeadline);
  }
  EXPECT_EQ(cache.stats().failures, 1u);
  // A later unguarded request succeeds — the abort was per-request.
  ClassifyOptions clean;
  EXPECT_NE(cache.get(c17_text(), "c17", "2", clean), nullptr);
}

// ------------------------------------------------------------- job queue

TEST(JobQueue, RunsJobsAndDrainsOnStop) {
  std::atomic<int> ran{0};
  JobQueue queue(2);
  for (int i = 0; i < 32; ++i)
    EXPECT_TRUE(queue.submit([&ran] { ran.fetch_add(1); }));
  queue.stop(/*drain=*/true);
  EXPECT_EQ(ran.load(), 32);
  const JobQueue::Stats stats = queue.stats();
  EXPECT_EQ(stats.submitted, 32u);
  EXPECT_EQ(stats.completed, 32u);
  // Submissions after stop are rejected, not silently dropped.
  EXPECT_FALSE(queue.submit([] {}));
  EXPECT_EQ(queue.stats().rejected, 1u);
}

TEST(JobQueue, ThrowingJobDoesNotKillTheWorker) {
  std::atomic<int> ran{0};
  JobQueue queue(1);
  queue.submit([] { throw std::runtime_error("poisoned request"); });
  queue.submit([&ran] { ran.fetch_add(1); });
  queue.stop(/*drain=*/true);
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(queue.stats().job_exceptions, 1u);
  EXPECT_EQ(queue.stats().completed, 2u);
}

// --------------------------------------------------------------- session

JsonValue handle(Session& session, const std::string& text) {
  return session.handle(text).response;
}

// The deterministic part of a classify payload: timings, the
// per-worker split and the replay counters are schedule-dependent.
std::string deterministic_classify(const JsonValue& classify) {
  JsonValue projected = JsonValue::object();
  for (const auto& [key, value] : classify.members()) {
    if (key == "wall_seconds" || key == "workers" || key == "memo") continue;
    projected.set(key, value);
  }
  return projected.to_string();
}

TEST(Session, EveryResponseValidatesAgainstTheSchema) {
  Session session{SessionConfig{}};
  const std::vector<std::string> requests = {
      "{\"op\": \"ping\", \"id\": 7}",
      "not json at all",
      "{\"op\": \"nope\"}",
      "[1, 2]",
      "{\"op\": \"classify\"}",  // missing circuit
      "{\"op\": \"classify\", \"circuit\": {\"builtin\": \"c17\"}}",
      "{\"op\": \"validate\", \"report\": {}}",
  };
  for (const std::string& request : requests) {
    const JsonValue response = handle(session, request);
    const std::vector<std::string> problems = validate_run_report(response);
    EXPECT_TRUE(problems.empty())
        << "request " << request << " produced invalid response: "
        << (problems.empty() ? "" : problems.front());
  }
}

TEST(Session, PingEchoesIdAndParseErrorsAreTyped) {
  Session session{SessionConfig{}};
  const JsonValue pong = handle(session, "{\"op\": \"ping\", \"id\": 7}");
  EXPECT_EQ(pong.find("kind")->as_string(), "serve_ack");
  EXPECT_EQ(pong.find("id")->as_uint64(), 7u);

  const JsonValue garbage = handle(session, "{{{");
  EXPECT_EQ(garbage.find("kind")->as_string(), "serve_error");
  EXPECT_EQ(garbage.find("error")->find("code")->as_string(), "parse_error");

  const JsonValue bad_op = handle(session, "{\"op\": \"frobnicate\"}");
  EXPECT_EQ(bad_op.find("error")->find("code")->as_string(), "bad_request");

  // A 20-digit id must be a typed refusal, not an uncaught
  // out_of_range (the as_uint64 regression, through the request path).
  const JsonValue huge_id =
      handle(session, "{\"op\": \"ping\", \"id\": 99999999999999999999}");
  EXPECT_EQ(huge_id.find("kind")->as_string(), "serve_error");
  EXPECT_EQ(huge_id.find("error")->find("code")->as_string(), "bad_request");
}

TEST(Session, NetlistsTheReaderRejectsAreBadRequests) {
  // Trailing text after ')' and a netlist without OUTPUT are reader
  // errors; through every op that parses client text they come back
  // as a typed bad_request naming the bench line.
  struct Case {
    const char* bench;
    const char* detail;
  };
  const Case cases[] = {
      {R"(INPUT(a)\ny = NOT(a) junk\nOUTPUT(y)\n)",
       "bench line 2: unexpected text 'junk' after ')'"},
      {R"(INPUT(a)\ny = NOT(a)\n)", "bench line 2: no OUTPUT declared"},
      {"", "bench line 1: no OUTPUT declared"},
  };
  const char* const ops[] = {R"("op": "classify")",
                             R"("op": "classify", "incremental": true)",
                             R"("op": "atpg")"};
  Session session{SessionConfig{}};
  for (const Case& entry : cases) {
    for (const char* op : ops) {
      const std::string request = std::string("{") + op +
                                  R"(, "circuit": {"bench": ")" +
                                  entry.bench + "\"}}";
      const JsonValue response = handle(session, request);
      ASSERT_EQ(response.find("kind")->as_string(), "serve_error") << request;
      const JsonValue* error = response.find("error");
      EXPECT_EQ(error->find("code")->as_string(), "bad_request") << request;
      EXPECT_NE(error->find("message")->as_string().find(entry.detail),
                std::string::npos)
          << error->find("message")->as_string();
      EXPECT_TRUE(validate_run_report(response).empty()) << request;
    }
  }
}

TEST(Session, CachedAndOneShotClassifyAreBitIdentical) {
  const std::string request =
      "{\"op\": \"classify\", \"id\": 1, \"circuit\": "
      "{\"builtin\": \"c17\"}, \"heuristic\": \"2\"}";
  Session one_shot{SessionConfig{}};
  CircuitCache cache(4);
  SessionConfig cached_config;
  cached_config.cache = &cache;
  Session cached{cached_config};

  const JsonValue base = handle(one_shot, request);
  const JsonValue miss = handle(cached, request);
  const JsonValue hit = handle(cached, request);
  EXPECT_FALSE(miss.find("serve")->find("cache_hit")->as_bool());
  EXPECT_TRUE(hit.find("serve")->find("cache_hit")->as_bool());

  // Deterministic classify fields must match across all three paths.
  EXPECT_EQ(deterministic_classify(*base.find("classify")),
            deterministic_classify(*miss.find("classify")));
  EXPECT_EQ(deterministic_classify(*base.find("classify")),
            deterministic_classify(*hit.find("classify")));
  EXPECT_EQ(base.find("prerun_work")->as_uint64(),
            hit.find("prerun_work")->as_uint64());
}

TEST(Session, IncrementalRequestsShareTheConeCache) {
  ConeCacheStore cone_cache;
  SessionConfig config;
  config.cone_cache = &cone_cache;
  Session session{config};
  const std::string request =
      "{\"op\": \"classify\", \"circuit\": {\"builtin\": \"c17\"}, "
      "\"heuristic\": \"2\", \"incremental\": true}";

  const JsonValue cold = handle(session, request);
  ASSERT_TRUE(validate_run_report(cold).empty());
  EXPECT_EQ(cold.find("method")->as_string(), "eco:2");
  const JsonValue* cold_cc = cold.find("serve")->find("cone_cache");
  ASSERT_NE(cold_cc, nullptr);
  EXPECT_EQ(cold_cc->find("hits")->as_uint64(), 0u);
  EXPECT_GT(cold_cc->find("misses")->as_uint64(), 0u);
  ASSERT_NE(cold.find("eco"), nullptr);

  const JsonValue warm = handle(session, request);
  ASSERT_TRUE(validate_run_report(warm).empty());
  const JsonValue* warm_cc = warm.find("serve")->find("cone_cache");
  ASSERT_NE(warm_cc, nullptr);
  EXPECT_EQ(warm_cc->find("misses")->as_uint64(), 0u);
  EXPECT_EQ(warm_cc->find("hits")->as_uint64(),
            cold_cc->find("misses")->as_uint64());
  EXPECT_EQ(warm_cc->find("recovered")->as_uint64(), 0u);

  // The served-from-cache run is bit-identical on deterministic fields.
  EXPECT_EQ(deterministic_classify(*cold.find("classify")),
            deterministic_classify(*warm.find("classify")));
}

// The implication tiers are gone (the static closure, then the learned
// tier): any "implications" field, even "off", is a typed bad_request
// naming the removal.
void expect_implications_refused(Session& session, const char* tier,
                                 const char* incremental) {
  const JsonValue refused = handle(
      session,
      std::string("{\"op\": \"classify\", \"circuit\": "
                  "{\"builtin\": \"c17\"}, \"implications\": \"") +
          tier + "\", \"incremental\": " + incremental + "}");
  ASSERT_TRUE(validate_run_report(refused).empty());
  EXPECT_EQ(refused.find("kind")->as_string(), "serve_error") << tier;
  EXPECT_EQ(refused.find("error")->find("code")->as_string(), "bad_request");
  EXPECT_NE(refused.find("error")->find("message")->as_string().find(
                "field 'implications' was removed"),
            std::string::npos)
      << tier;
}

TEST(Session, RemovedClosureTierIsABadRequest) {
  Session session{SessionConfig{}};
  for (const char* tier : {"closure", "learned", "off", "psychic"})
    expect_implications_refused(session, tier, "false");
}

// Incremental mode refuses the field the same way (it used to reject
// only the learned tier).
TEST(Session, LearnedTierWithIncrementalIsABadRequest) {
  Session session{SessionConfig{}};
  for (const char* tier : {"closure", "learned", "off", "psychic"})
    expect_implications_refused(session, tier, "true");
}

TEST(Session, LanesOutOfRangeIsABadRequest) {
  Session session{SessionConfig{}};
  // The lane engine is gone, so every lane width is out of range: the
  // field is a typed bad_request naming it, never silently ignored.
  for (const char* lanes : {"513", "0", "512", "1"}) {
    const JsonValue refused = handle(
        session,
        std::string("{\"op\": \"classify\", \"circuit\": "
                    "{\"builtin\": \"c17\"}, \"lanes\": ") +
            lanes + "}");
    ASSERT_TRUE(validate_run_report(refused).empty());
    EXPECT_EQ(refused.find("kind")->as_string(), "serve_error") << lanes;
    EXPECT_EQ(refused.find("error")->find("code")->as_string(),
              "bad_request");
    EXPECT_NE(
        refused.find("error")->find("message")->as_string().find("lanes"),
        std::string::npos);
  }
}

// `threads` reaches a ThreadPool, so validate_job bounds it before any
// pool starts; calling it directly starts no threads.
TEST(Session, ValidateJobBoundsThreads) {
  Job job;
  for (const std::size_t threads : {std::size_t{0}, std::size_t{1},
                                    kMaxJobThreads}) {
    job.threads = threads;
    EXPECT_NO_THROW(validate_job(job)) << threads;
  }
  for (const std::size_t threads :
       {kMaxJobThreads + 1, std::numeric_limits<std::size_t>::max()}) {
    job.threads = threads;
    EXPECT_THROW(validate_job(job), std::invalid_argument) << threads;
  }
}

TEST(Session, OversizedThreadsIsABadRequest) {
  Session session{SessionConfig{}};
  for (const char* op : {"classify", "atpg"}) {
    const JsonValue refused = handle(
        session, std::string("{\"op\": \"") + op +
                     "\", \"circuit\": {\"builtin\": \"c17\"}, "
                     "\"threads\": 257}");
    ASSERT_TRUE(validate_run_report(refused).empty());
    EXPECT_EQ(refused.find("kind")->as_string(), "serve_error") << op;
    EXPECT_EQ(refused.find("error")->find("code")->as_string(),
              "bad_request");
    EXPECT_NE(refused.find("error")->find("message")->as_string().find(
                  "threads 257 exceeds the limit of 256"),
              std::string::npos)
        << op;
  }
}

TEST(Session, ServePayloadExposesCachePressureCounters) {
  CircuitCache cache(1);  // capacity 1: the second circuit evicts
  SessionConfig config;
  config.cache = &cache;
  Session session{config};

  const JsonValue first = handle(
      session,
      "{\"op\": \"classify\", \"circuit\": {\"builtin\": \"c17\"}}");
  ASSERT_TRUE(validate_run_report(first).empty());
  const JsonValue* serve = first.find("serve");
  ASSERT_NE(serve->find("cache_evictions"), nullptr);
  EXPECT_EQ(serve->find("cache_evictions")->as_uint64(), 0u);
  EXPECT_EQ(serve->find("cache_failures")->as_uint64(), 0u);

  const JsonValue second = handle(
      session,
      "{\"op\": \"classify\", \"circuit\": {\"builtin\": \"example\"}}");
  ASSERT_TRUE(validate_run_report(second).empty());
  EXPECT_EQ(second.find("serve")->find("cache_evictions")->as_uint64(), 1u);
}

TEST(Session, StatsOpReportsTheConeCache) {
  ConeCacheStore cone_cache;
  SessionConfig config;
  config.cone_cache = &cone_cache;
  Session session{config};
  handle(session,
         "{\"op\": \"classify\", \"circuit\": {\"builtin\": \"c17\"}, "
         "\"incremental\": true}");

  const JsonValue stats = handle(session, "{\"op\": \"stats\"}");
  const JsonValue* cone = stats.find("stats")->find("cone_cache");
  ASSERT_NE(cone, nullptr);
  EXPECT_GT(cone->find("records")->as_uint64(), 0u);
  EXPECT_GT(cone->find("misses")->as_uint64(), 0u);
  EXPECT_EQ(cone->find("recovered")->as_uint64(), 0u);
}

TEST(Session, FaultInjectedRequestAbortsWithTypedReason) {
  Session session{SessionConfig{}};
  const JsonValue response = handle(
      session,
      "{\"op\": \"classify\", \"circuit\": {\"builtin\": \"c17\"}, "
      "\"guard\": {\"inject_abort_after\": 5, "
      "\"inject_abort_reason\": \"memory\"}}");
  ASSERT_TRUE(validate_run_report(response).empty());
  const JsonValue* classify = response.find("classify");
  ASSERT_NE(classify, nullptr);
  EXPECT_FALSE(classify->find("completed")->as_bool());
  EXPECT_EQ(classify->find("abort_reason")->as_string(), "memory");
}

TEST(Session, AtpgRunsEndToEnd) {
  Session session{SessionConfig{}};
  const JsonValue response = handle(
      session,
      "{\"op\": \"atpg\", \"id\": 3, \"circuit\": {\"builtin\": \"c17\"}}");
  ASSERT_TRUE(validate_run_report(response).empty());
  EXPECT_EQ(response.find("kind")->as_string(), "atpg_run");
  EXPECT_TRUE(response.find("atpg")->find("completed")->as_bool());
  EXPECT_EQ(response.find("serve")->find("id")->as_uint64(), 3u);
}

std::string classify_request(const std::string& circuit,
                             const std::string& heuristic,
                             std::size_t threads,
                             const std::string& extra = "") {
  return "{\"op\": \"classify\", \"circuit\": {\"builtin\": \"" + circuit +
         "\"}, \"heuristic\": \"" + heuristic +
         "\", \"threads\": " + std::to_string(threads) + extra + "}";
}

/// What the library entry points report for `spec` (Rng(1) tie-breaks,
/// as every front end uses).
RdIdentification library_run(const Circuit& circuit, const std::string& spec,
                             const ClassifyOptions& base) {
  Rng rng(1);
  if (spec == "1") return identify_rd_heuristic1(circuit, base, &rng);
  if (spec == "2") return identify_rd_heuristic2(circuit, base, &rng);
  if (spec == "inverse")
    return identify_rd_heuristic2_inverse(circuit, base, &rng);
  RdIdentification rd;
  rd.classify = classify_fus(circuit, base);
  return rd;
}

void expect_matches_library(const JsonValue& response,
                            const RdIdentification& expected,
                            const std::string& label) {
  ASSERT_TRUE(validate_run_report(response).empty()) << label;
  ASSERT_EQ(response.find("kind")->as_string(), "classify_run") << label;
  EXPECT_EQ(deterministic_classify(*response.find("classify")),
            deterministic_classify(classify_result_json(expected.classify)))
      << label;
  EXPECT_EQ(response.find("prerun_work")->as_uint64(), expected.prerun_work)
      << label;
}

// The one-shot Session — the CLI's pipeline — reports the same classify
// block and pre-run work as identify_rd_* / classify_fus, completed or
// aborted in a pre-run.
TEST(Session, OneShotMatchesTheLibraryPipeline) {
  Session session{SessionConfig{}};
  const std::pair<const char*, Circuit> circuits[] = {
      {"example", paper_example_circuit()},
      {"c17", c17()},
      {"c432", make_benchmark("c432")}};
  for (const auto& [name, circuit] : circuits) {
    for (const std::string spec : {"1", "2", "inverse", "fus"}) {
      for (const std::size_t threads : {1u, 4u}) {
        ClassifyOptions base;
        base.num_threads = threads;
        expect_matches_library(
            handle(session, classify_request(name, spec, threads)),
            library_run(circuit, spec, base),
            std::string(name) + " heuristic " + spec + " threads " +
                std::to_string(threads));
      }
    }
  }
  ClassifyOptions aborting;
  aborting.work_limit = 190000;
  expect_matches_library(
      handle(session, classify_request("c432", "2", 1,
                                       ", \"work_limit\": 190000")),
      library_run(make_benchmark("c432"), "2", aborting), "aborted pre-run");
}

// A Heuristic 2 pre-run that exhausts the work limit is reported with
// its accounting — prerun_work and total_logical — through a cold and a
// shared cache alike, as identify_rd_heuristic2 reports it.
TEST(Session, AbortedHeuristic2SortReportsItsPrerun) {
  ClassifyOptions base;
  base.work_limit = 190000;
  Rng rng(1);
  const RdIdentification expected =
      identify_rd_heuristic2(make_benchmark("c432"), base, &rng);
  ASSERT_FALSE(expected.classify.completed);
  ASSERT_GT(expected.prerun_work, 0u);
  ASSERT_FALSE(expected.classify.total_logical.is_zero());

  CircuitCache cache(4);
  SessionConfig cached;
  cached.cache = &cache;
  for (const SessionConfig& config : {SessionConfig{}, cached}) {
    Session session{config};
    const JsonValue response = handle(
        session,
        classify_request("c432", "2", 1, ", \"work_limit\": 190000"));
    // The classify block carries total_logical, so this also pins it.
    expect_matches_library(response, expected, "aborted pre-run");
    EXPECT_EQ(response.find("classify")->find("abort_reason")->as_string(),
              "work_budget");
  }
}

// Every rung of the resilient ladder classifies under the job's sort:
// on the paper's example Heuristic 1's must-test set is 5 paths, the
// FS set ("fus") 8.
TEST(Session, ResilientEngineClassifiesUnderTheJobsSort) {
  Session session{SessionConfig{}};
  const std::pair<const char*, std::uint64_t> cases[] = {{"1", 5},
                                                         {"fus", 8}};
  for (const auto& [spec, kept] : cases) {
    const JsonValue response = handle(
        session,
        classify_request("example", spec, 1, ", \"engine\": \"resilient\""));
    ASSERT_TRUE(validate_run_report(response).empty()) << spec;
    EXPECT_EQ(response.find("method")->as_string(), "resilient");
    EXPECT_EQ(response.find("resilient")->find("engine")->as_string(),
              "exact");
    EXPECT_EQ(response.find("classify")->find("kept_paths")->as_uint64(),
              kept)
        << spec;
    const JsonValue approx =
        handle(session, classify_request("example", spec, 1));
    EXPECT_EQ(approx.find("classify")->find("kept_paths")->as_uint64(), kept)
        << spec;
  }
  const JsonValue refused = handle(
      session,
      classify_request("c17", "2", 1, ", \"engine\": \"bitpar\""));
  EXPECT_EQ(refused.find("error")->find("code")->as_string(), "bad_request");
  EXPECT_NE(refused.find("error")->find("message")->as_string().find(
                "unknown engine 'bitpar'"),
            std::string::npos);
}

// A resilient job whose Heuristic 2 pre-run aborts still reports the
// ladder: method "resilient" and a block on the approximate rung,
// degraded from exact for the pre-run's cause.
TEST(Session, ResilientJobWithAbortedSortReportsTheLadder) {
  Session session{SessionConfig{}};
  const JsonValue response = handle(
      session, classify_request("c17", "2", 1,
                                ", \"engine\": \"resilient\","
                                " \"work_limit\": 10"));
  ASSERT_TRUE(validate_run_report(response).empty());
  EXPECT_EQ(response.find("classify")->find("abort_reason")->as_string(),
            "work_budget");
  EXPECT_EQ(response.find("method")->as_string(), "resilient");
  const JsonValue* ladder = response.find("resilient");
  ASSERT_NE(ladder, nullptr);
  EXPECT_EQ(ladder->find("engine")->as_string(), "approximate");
  EXPECT_EQ(ladder->find("degraded_from")->as_string(), "exact");
  EXPECT_EQ(ladder->find("abort_reason")->as_string(), "work_budget");
}

// ---------------------------------------------------------------- server

class TestClient {
 public:
  explicit TestClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    connected_ = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof addr) == 0;
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }

  void send_raw(const std::string& bytes) {
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  /// Reads until one complete frame is available; empty on EOF.
  std::string read_frame() {
    std::string payload;
    char buffer[4096];
    for (;;) {
      const FrameDecoder::Status status = decoder_.next(&payload);
      if (status == FrameDecoder::Status::kFrame) return payload;
      if (status == FrameDecoder::Status::kError) return "";
      const ssize_t n = ::recv(fd_, buffer, sizeof buffer, 0);
      if (n <= 0) return "";
      decoder_.feed(buffer, static_cast<std::size_t>(n));
    }
  }

  JsonValue exchange(const std::string& payload) {
    send_raw(encode_frame(payload));
    const std::string response = read_frame();
    EXPECT_FALSE(response.empty());
    return response.empty() ? JsonValue::null() : parse_json(response);
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  FrameDecoder decoder_;
};

TEST(Server, EndToEndClassifyStatsAndShutdown) {
  ServerConfig config;
  config.num_workers = 2;
  Server server(config);
  server.start();
  ASSERT_NE(server.port(), 0);

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  const JsonValue classify = client.exchange(
      "{\"op\": \"classify\", \"id\": 11, \"circuit\": "
      "{\"builtin\": \"c17\"}, \"heuristic\": \"1\"}");
  EXPECT_TRUE(validate_run_report(classify).empty());
  EXPECT_EQ(classify.find("kind")->as_string(), "classify_run");
  EXPECT_EQ(classify.find("serve")->find("id")->as_uint64(), 11u);
  EXPECT_TRUE(classify.find("classify")->find("completed")->as_bool());

  const JsonValue stats = client.exchange("{\"op\": \"stats\", \"id\": 12}");
  EXPECT_TRUE(validate_run_report(stats).empty());
  EXPECT_GE(stats.find("stats")->find("server")->find("requests")->as_uint64(),
            1u);
  EXPECT_EQ(
      stats.find("stats")->find("cache")->find("misses")->as_uint64(), 1u);

  const JsonValue bye = client.exchange("{\"op\": \"shutdown\", \"id\": 13}");
  EXPECT_EQ(bye.find("kind")->as_string(), "serve_ack");
  EXPECT_FALSE(server.wait());  // not an external cancellation
}

TEST(Server, ConcurrentClientsOnOneKeyBuildOnce) {
  ServerConfig config;
  config.num_workers = 4;
  Server server(config);
  server.start();

  constexpr int kClients = 4;
  std::vector<std::string> bodies(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      TestClient client(server.port());
      if (!client.connected()) return;
      const JsonValue response = client.exchange(
          "{\"op\": \"classify\", \"circuit\": {\"builtin\": \"c17\"}}");
      const JsonValue* classify = response.find("classify");
      if (classify != nullptr) bodies[c] = classify->to_string();
    });
  }
  for (auto& thread : threads) thread.join();

  const CacheStats cache = server.cache().stats();
  EXPECT_EQ(cache.misses, 1u);  // one build, everyone else hit or waited
  for (int c = 1; c < kClients; ++c) {
    ASSERT_FALSE(bodies[c].empty());
    // wall_seconds differs per run; strip nondeterministic lines.
    EXPECT_EQ(bodies[c].substr(0, bodies[c].find("\"work\"")),
              bodies[0].substr(0, bodies[0].find("\"work\"")));
  }
  server.request_stop();
  server.wait();
}

TEST(Server, MalformedFrameGetsTypedErrorAndDrop) {
  ServerConfig config;
  config.max_frame_bytes = 64;
  Server server(config);
  server.start();

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  // Claim a payload far over the ceiling; the server must answer with
  // a serve_error frame and close the connection.
  client.send_raw(encode_frame(std::string(65, 'x')).substr(0, 4));
  const std::string response = client.read_frame();
  ASSERT_FALSE(response.empty());
  const JsonValue error = parse_json(response);
  EXPECT_TRUE(validate_run_report(error).empty());
  EXPECT_EQ(error.find("kind")->as_string(), "serve_error");
  EXPECT_EQ(error.find("error")->find("code")->as_string(),
            "frame_too_large");
  EXPECT_EQ(client.read_frame(), "");  // connection dropped

  EXPECT_EQ(server.stats().protocol_errors, 1u);
  server.request_stop();
  server.wait();
}

TEST(Server, ExternalCancellationStopsTheServer) {
  CancellationToken cancel;
  ServerConfig config;
  config.cancel = &cancel;
  Server server(config);
  server.start();
  cancel.request();
  EXPECT_TRUE(server.wait());  // reported as an external stop
}

}  // namespace
}  // namespace rd::serve
