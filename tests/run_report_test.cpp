// Golden-schema tests for the run-report layer: every report kind the
// tools emit must round-trip through parse_json + validate_run_report,
// incomplete runs must serialize their rd statistics as nulls (never
// NaN/Inf or 0-that-means-unknown), and the validator must reject each
// class of malformed report with a specific problem message.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/classify.h"
#include "core/heuristics.h"
#include "gen/examples.h"
#include "gen/iscas_like.h"
#include "io/bench_io.h"
#include "io/run_report.h"
#include "util/metrics.h"

namespace rd {
namespace {

/// Round-trips a report through the serializer and parser — exactly
/// what rdfast_cli validate-json does to the files on disk.
JsonValue round_trip(const JsonValue& report) {
  return parse_json(report.to_string());
}

bool has_problem(const std::vector<std::string>& problems,
                 const std::string& needle) {
  for (const std::string& problem : problems)
    if (problem.find(needle) != std::string::npos) return true;
  return false;
}

RdIdentification classify_c17() {
  const Circuit circuit = c17();
  RdIdentification rd = identify_rd_heuristic1(circuit, ClassifyOptions{});
  return rd;
}

/// A run that used the subtree-replay cache: Heuristic 1 collects no
/// keys or lead counts, and c432 is above the cache's size floor.
RdIdentification classify_c432() {
  const Circuit circuit = make_benchmark("c432");
  return identify_rd_heuristic1(circuit, ClassifyOptions{});
}

// ---- golden schema --------------------------------------------------------

TEST(RunReport, ClassifyRunConformsToSchema) {
  const RdIdentification rd = classify_c17();
  const JsonValue report =
      classify_run_report("c17", "heu1", rd, &global_metrics());
  const JsonValue back = round_trip(report);
  EXPECT_TRUE(validate_run_report(back).empty());

  EXPECT_EQ(back.find("schema_version")->as_uint64(), kRunReportSchemaVersion);
  EXPECT_EQ(back.find("kind")->as_string(), "classify_run");
  EXPECT_EQ(back.find("circuit")->as_string(), "c17");
  EXPECT_EQ(back.find("method")->as_string(), "heu1");

  const JsonValue* classify = back.find("classify");
  ASSERT_NE(classify, nullptr);
  EXPECT_TRUE(classify->find("completed")->as_bool());
  EXPECT_EQ(classify->find("kept_paths")->as_uint64(), rd.classify.kept_paths);
  EXPECT_EQ(std::to_string(classify->find("total_logical")->as_uint64()),
            rd.classify.total_logical.to_decimal());
  EXPECT_FALSE(classify->find("rd_paths")->is_null());
  EXPECT_FALSE(classify->find("rd_percent")->is_null());
  // Implication counters flow from the engine into the report; a real
  // c17 classification makes assignments, so zero means a broken wire.
  const JsonValue* implication = classify->find("implication");
  ASSERT_NE(implication, nullptr);
  EXPECT_GT(implication->find("assignments")->as_uint64(), 0u);
  for (const char* key : {"propagations", "conflicts", "backward"})
    ASSERT_NE(implication->find(key), nullptr);

  const JsonValue* metrics = back.find("metrics");
  ASSERT_NE(metrics, nullptr);
  for (const char* key : {"counters", "timers", "gauges"})
    ASSERT_NE(metrics->find(key), nullptr) << key;
}

TEST(RunReport, AtpgRunConformsToSchema) {
  const RdIdentification rd = classify_c17();
  GeneratedTestSet set;
  set.robust_count = 3;
  set.nonrobust_count = 1;
  set.undetected_count = 0;
  set.robust_coverage_percent = 75.0;
  set.robust_nodes = 42;
  set.nonrobust_nodes = 7;
  set.wall_seconds = 0.25;
  const JsonValue back = round_trip(atpg_run_report("c17", rd, set));
  EXPECT_TRUE(validate_run_report(back).empty());
  const JsonValue* atpg = back.find("atpg");
  ASSERT_NE(atpg, nullptr);
  EXPECT_EQ(atpg->find("robust")->as_uint64(), 3u);
  EXPECT_EQ(atpg->find("robust_nodes")->as_uint64(), 42u);
  EXPECT_EQ(atpg->find("nonrobust_nodes")->as_uint64(), 7u);
  EXPECT_DOUBLE_EQ(atpg->find("robust_coverage_percent")->as_double(), 75.0);
}

TEST(RunReport, BenchReportConformsToSchema) {
  JsonValue report = bench_report("engines");
  JsonValue rows = JsonValue::array();
  JsonValue row = JsonValue::object();
  row.set("circuit", JsonValue::string("c432"));
  row.set("speedup", JsonValue::number(1.7));
  rows.append(std::move(row));
  report.set("rows", std::move(rows));
  const JsonValue back = round_trip(report);
  EXPECT_TRUE(validate_run_report(back).empty());
  EXPECT_EQ(back.find("bench")->as_string(), "engines");
  EXPECT_EQ(back.find("rows")->size(), 1u);
}

// ---- null discipline for rd statistics ------------------------------------

TEST(RunReport, IncompleteRunSerializesRdStatsAsNull) {
  ClassifyResult aborted;
  aborted.completed = false;
  aborted.kept_paths = 17;
  aborted.total_logical = BigUint(100);
  const JsonValue json = round_trip(classify_result_json(aborted));
  EXPECT_FALSE(json.find("completed")->as_bool());
  EXPECT_TRUE(json.find("rd_paths")->is_null());
  EXPECT_TRUE(json.find("rd_percent")->is_null());
  // kept_paths stays a number: it is a valid lower bound even aborted.
  EXPECT_EQ(json.find("kept_paths")->as_uint64(), 17u);
}

TEST(RunReport, PathlessCircuitSerializesRdPercentAsNull) {
  ClassifyResult empty;  // completed, but total_logical == 0
  const JsonValue json = round_trip(classify_result_json(empty));
  EXPECT_TRUE(json.find("rd_percent")->is_null());
}

TEST(RunReport, NonFiniteRdPercentSerializesAsNullNotNanToken) {
  ClassifyResult poisoned;
  poisoned.total_logical = BigUint(8);
  poisoned.rd_paths = BigUint(4);
  poisoned.rd_percent = std::nan("");
  const std::string text = classify_result_json(poisoned).to_string();
  EXPECT_EQ(text.find("nan"), std::string::npos);
  EXPECT_EQ(text.find("inf"), std::string::npos);
  // Still parseable JSON, with the field present and null.
  EXPECT_TRUE(parse_json(text).find("rd_percent")->is_null());

  poisoned.rd_percent = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(parse_json(classify_result_json(poisoned).to_string())
                  .find("rd_percent")
                  ->is_null());
}

TEST(RunReport, BigTotalsSerializeAsExactTokens) {
  ClassifyResult result;
  // 2^100: far beyond uint64/double exactness.
  BigUint big(1);
  for (int i = 0; i < 100; ++i) big = big + big;
  result.total_logical = big;
  result.rd_paths = big;
  const std::string text = classify_result_json(result).to_string();
  EXPECT_NE(text.find(big.to_decimal()), std::string::npos);
  EXPECT_EQ(round_trip(classify_result_json(result))
                .find("total_logical")
                ->to_string(),
            big.to_decimal() + "\n");
}

// ---- metrics recording ----------------------------------------------------

TEST(RunReport, RecordClassifyMetricsFeedsRegistry) {
  const RdIdentification rd = classify_c17();
  MetricsRegistry registry;
  record_classify_metrics(rd.classify, registry);
  record_classify_metrics(rd.classify, registry);
  const auto snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counters.at("classify.runs"), 2u);
  EXPECT_EQ(snapshot.counters.at("classify.kept_paths"),
            2 * rd.classify.kept_paths);
  EXPECT_GT(snapshot.counters.at("implication.assignments"), 0u);
  EXPECT_EQ(snapshot.timers.at("classify.wall").count, 2u);
  EXPECT_EQ(snapshot.counters.count("classify.aborted"), 0u);

  ClassifyResult aborted;
  aborted.completed = false;
  record_classify_metrics(aborted, registry);
  EXPECT_EQ(registry.snapshot().counters.at("classify.aborted"), 1u);
}

TEST(RunReport, LoadTimerReachesMetricsTimers) {
  // The Session times a job's netlist load as io.load on the registry
  // the report is built from; the timer needs no schema change.
  MetricsRegistry registry;
  Circuit circuit;
  {
    ScopedTimer timer(registry, "io.load");
    circuit = read_bench_file("data/c17.bench");
  }
  const RdIdentification rd =
      identify_rd_heuristic1(circuit, ClassifyOptions{});
  record_classify_metrics(rd.classify, registry);
  const JsonValue back =
      round_trip(classify_run_report(circuit.name(), "1", rd, &registry));
  EXPECT_TRUE(validate_run_report(back).empty());
  const JsonValue* load =
      back.find("metrics")->find("timers")->find("io.load");
  ASSERT_NE(load, nullptr);
  EXPECT_EQ(load->find("count")->as_uint64(), 1u);
  EXPECT_GE(load->find("seconds")->as_double(), 0.0);
}

// ---- validator rejections -------------------------------------------------

TEST(RunReportValidate, RejectsNonObject) {
  EXPECT_TRUE(has_problem(validate_run_report(JsonValue::array()),
                          "not a JSON object"));
}

TEST(RunReportValidate, RejectsMissingOrWrongEnvelope) {
  JsonValue report = JsonValue::object();
  EXPECT_TRUE(has_problem(validate_run_report(report), "schema_version"));
  EXPECT_TRUE(has_problem(validate_run_report(report), "kind"));

  report.set("schema_version", JsonValue::number(std::uint64_t{999}));
  report.set("kind", JsonValue::string("classify_run"));
  EXPECT_TRUE(has_problem(validate_run_report(report),
                          "unsupported schema_version"));

  report.set("schema_version", JsonValue::string("1"));
  EXPECT_TRUE(has_problem(validate_run_report(report), "not a number"));

  report.set("schema_version", JsonValue::number(kRunReportSchemaVersion));
  report.set("kind", JsonValue::string("mystery"));
  EXPECT_TRUE(has_problem(validate_run_report(report), "unknown kind"));
}

TEST(RunReportValidate, RejectsClassifyRunMissingKeys) {
  const RdIdentification rd = classify_c17();
  JsonValue report = round_trip(classify_run_report("c17", "heu1", rd));
  ASSERT_TRUE(validate_run_report(report).empty());
  // Knock out one required key at a time and expect a named complaint.
  for (const char* key : {"circuit", "method", "sort_seconds", "prerun_work",
                          "classify"}) {
    JsonValue broken = JsonValue::object();
    for (const auto& [name, value] : report.members())
      if (name != key) broken.set(name, value);
    EXPECT_TRUE(has_problem(validate_run_report(broken), key)) << key;
  }
}

TEST(RunReportValidate, RejectsCompletedRunWithNullRdPaths) {
  const RdIdentification rd = classify_c17();
  JsonValue report = round_trip(classify_run_report("c17", "heu1", rd));
  JsonValue classify = *report.find("classify");
  classify.set("rd_paths", JsonValue::null());
  report.set("classify", std::move(classify));
  EXPECT_TRUE(has_problem(validate_run_report(report),
                          "completed run has null \"rd_paths\""));
}

TEST(RunReportValidate, RejectsBenchWithNonArrayRows) {
  JsonValue report = bench_report("table2");
  report.set("rows", JsonValue::string("oops"));
  EXPECT_TRUE(has_problem(validate_run_report(report), "not an array"));

  report = bench_report("table2");
  JsonValue rows = JsonValue::array();
  rows.append(JsonValue::number(1));
  report.set("rows", std::move(rows));
  EXPECT_TRUE(has_problem(validate_run_report(report),
                          "rows[0] is not an object"));
}

// ---- v2 abort_reason discipline -------------------------------------------

TEST(RunReport, CompletedRunSerializesAbortReasonAsNull) {
  const RdIdentification rd = classify_c17();
  const JsonValue json = round_trip(classify_result_json(rd.classify));
  ASSERT_NE(json.find("abort_reason"), nullptr);
  EXPECT_TRUE(json.find("abort_reason")->is_null());
}

TEST(RunReport, AbortedRunNamesItsReason) {
  ClassifyResult aborted;
  aborted.completed = false;
  aborted.abort_reason = AbortReason::kDeadline;
  const JsonValue json = round_trip(classify_result_json(aborted));
  EXPECT_EQ(json.find("abort_reason")->as_string(), "deadline");
}

TEST(RunReport, AbortReasonJsonCoversEveryReason) {
  EXPECT_TRUE(abort_reason_json(AbortReason::kNone).is_null());
  EXPECT_EQ(abort_reason_json(AbortReason::kDeadline).as_string(), "deadline");
  EXPECT_EQ(abort_reason_json(AbortReason::kWorkBudget).as_string(),
            "work_budget");
  EXPECT_EQ(abort_reason_json(AbortReason::kMemory).as_string(), "memory");
  EXPECT_EQ(abort_reason_json(AbortReason::kCancelled).as_string(),
            "cancelled");
}

TEST(RunReport, AtpgBlockCarriesAbortReason) {
  const RdIdentification rd = classify_c17();
  GeneratedTestSet aborted;
  aborted.completed = false;
  aborted.abort_reason = AbortReason::kCancelled;
  const JsonValue back = round_trip(atpg_run_report("c17", rd, aborted));
  EXPECT_TRUE(validate_run_report(back).empty());
  const JsonValue* atpg = back.find("atpg");
  ASSERT_NE(atpg, nullptr);
  EXPECT_FALSE(atpg->find("completed")->as_bool());
  EXPECT_EQ(atpg->find("abort_reason")->as_string(), "cancelled");
}

TEST(RunReport, ResilientJsonRecordsLadder) {
  ResilientClassifyResult degraded;
  degraded.engine = EngineRung::kApproximate;
  degraded.degraded_reason = AbortReason::kWorkBudget;
  const JsonValue json = round_trip(resilient_json(degraded));
  EXPECT_EQ(json.find("engine")->as_string(), "approximate");
  EXPECT_EQ(json.find("degraded_from")->as_string(), "exact");
  EXPECT_EQ(json.find("abort_reason")->as_string(), "work_budget");

  ResilientClassifyResult direct;
  direct.engine = EngineRung::kExact;
  const JsonValue answered = round_trip(resilient_json(direct));
  EXPECT_EQ(answered.find("engine")->as_string(), "exact");
  EXPECT_TRUE(answered.find("degraded_from")->is_null());
  EXPECT_TRUE(answered.find("abort_reason")->is_null());
}

TEST(RunReportValidate, RejectsAbortReasonViolations) {
  const RdIdentification rd = classify_c17();
  JsonValue report = round_trip(classify_run_report("c17", "heu1", rd));
  ASSERT_TRUE(validate_run_report(report).empty());

  // Missing key entirely.
  {
    JsonValue classify = JsonValue::object();
    for (const auto& [name, value] : report.find("classify")->members())
      if (name != "abort_reason") classify.set(name, value);
    JsonValue broken = report;
    broken.set("classify", std::move(classify));
    EXPECT_TRUE(has_problem(validate_run_report(broken),
                            "missing key \"abort_reason\""));
  }
  // Completed run naming a reason.
  {
    JsonValue classify = *report.find("classify");
    classify.set("abort_reason", JsonValue::string("deadline"));
    JsonValue broken = report;
    broken.set("classify", std::move(classify));
    EXPECT_TRUE(has_problem(validate_run_report(broken),
                            "has non-null \"abort_reason\""));
  }
  // Aborted run with a null reason.
  {
    JsonValue classify = *report.find("classify");
    classify.set("completed", JsonValue::boolean(false));
    classify.set("rd_paths", JsonValue::null());
    classify.set("rd_percent", JsonValue::null());
    classify.set("abort_reason", JsonValue::null());
    JsonValue broken = report;
    broken.set("classify", std::move(classify));
    EXPECT_TRUE(has_problem(validate_run_report(broken),
                            "has null \"abort_reason\""));
  }
  // Unknown reason name.
  {
    JsonValue classify = *report.find("classify");
    classify.set("completed", JsonValue::boolean(false));
    classify.set("rd_paths", JsonValue::null());
    classify.set("rd_percent", JsonValue::null());
    classify.set("abort_reason", JsonValue::string("cosmic_rays"));
    JsonValue broken = report;
    broken.set("classify", std::move(classify));
    EXPECT_TRUE(has_problem(validate_run_report(broken),
                            "unknown abort_reason \"cosmic_rays\""));
  }
}

TEST(RunReportValidate, RejectsMalformedResilientBlock) {
  const RdIdentification rd = classify_c17();
  JsonValue report = round_trip(classify_run_report("c17", "resilient", rd));

  // The resilient block is optional; a well-formed one passes.
  ResilientClassifyResult ladder;
  ladder.engine = EngineRung::kApproximate;
  ladder.degraded_reason = AbortReason::kMemory;
  report.set("resilient", resilient_json(ladder));
  EXPECT_TRUE(validate_run_report(report).empty());

  report.set("resilient", JsonValue::string("oops"));
  EXPECT_TRUE(has_problem(validate_run_report(report),
                          "\"resilient\" is not an object"));

  JsonValue block = resilient_json(ladder);
  block.set("abort_reason", JsonValue::string("gremlins"));
  report.set("resilient", std::move(block));
  EXPECT_TRUE(has_problem(validate_run_report(report),
                          "\"resilient.abort_reason\""));

  block = resilient_json(ladder);
  block.set("degraded_from", JsonValue::number(3));
  report.set("resilient", std::move(block));
  EXPECT_TRUE(has_problem(validate_run_report(report),
                          "\"resilient.degraded_from\""));
}

TEST(RunReport, EcoBlockConformsToSchema) {
  const Circuit circuit = c17();
  ConeCacheStore store;
  const EcoResult eco = classify_eco(circuit, store, EcoOptions{});
  RdIdentification rd;
  rd.classify = eco.classify;
  JsonValue report = classify_run_report("c17", "eco:2", rd);
  report.set("eco", eco_json(eco.stats, store.stats()));

  const JsonValue back = round_trip(report);
  EXPECT_TRUE(validate_run_report(back).empty());
  const JsonValue* block = back.find("eco");
  ASSERT_NE(block, nullptr);
  EXPECT_EQ(block->find("cones")->as_uint64(), eco.stats.cones);
  EXPECT_EQ(block->find("misses")->as_uint64(), eco.stats.misses);
  EXPECT_EQ(block->find("stored")->as_uint64(), eco.stats.stored);
  const JsonValue* recovery = block->find("recovery");
  ASSERT_NE(recovery, nullptr);
  for (const char* key :
       {"torn_tmp", "bad_header", "version_skew", "truncated",
        "crc_mismatch", "malformed_record", "duplicate_key",
        "quarantined_files"})
    EXPECT_EQ(recovery->find(key)->as_uint64(), 0u) << key;
}

TEST(RunReportValidate, RejectsMalformedEcoBlock) {
  const RdIdentification rd = classify_c17();
  JsonValue report = round_trip(classify_run_report("c17", "eco:2", rd));

  // The eco block is optional; a well-formed one passes.
  ConeCacheStore store;
  report.set("eco", eco_json(EcoStats{}, store.stats()));
  EXPECT_TRUE(validate_run_report(report).empty());

  report.set("eco", JsonValue::string("oops"));
  EXPECT_TRUE(has_problem(validate_run_report(report),
                          "\"eco\" is not an object"));

  JsonValue block = eco_json(EcoStats{}, store.stats());
  JsonValue no_cones = JsonValue::object();
  for (const auto& [name, value] : block.members())
    if (name != "cones") no_cones.set(name, value);
  report.set("eco", std::move(no_cones));
  EXPECT_TRUE(has_problem(validate_run_report(report),
                          "missing key \"cones\" in eco"));

  block = eco_json(EcoStats{}, store.stats());
  JsonValue no_recovery = JsonValue::object();
  for (const auto& [name, value] : block.members())
    if (name != "recovery") no_recovery.set(name, value);
  report.set("eco", std::move(no_recovery));
  EXPECT_TRUE(has_problem(validate_run_report(report),
                          "missing key \"recovery\" in eco"));

  block = eco_json(EcoStats{}, store.stats());
  JsonValue recovery = *block.find("recovery");
  recovery.set("torn_tmp", JsonValue::string("one"));
  block.set("recovery", std::move(recovery));
  report.set("eco", std::move(block));
  EXPECT_TRUE(has_problem(validate_run_report(report),
                          "\"eco.recovery.torn_tmp\" is not a number"));
}

// The implication tier blocks are gone (the static closure, then the
// learned tier, DESIGN.md "Removed accelerators"): a fresh report
// carries neither block and its metrics carry no learned.* counters.
// The test id predates the removal and is kept stable.
TEST(RunReport, ClosureBlockConformsToSchemaAndFeedsMetrics) {
  RdIdentification rd = classify_c17();
  MetricsRegistry metrics;
  record_classify_metrics(rd.classify, metrics);
  const JsonValue fresh =
      round_trip(classify_run_report("c17", "1", rd, &metrics));
  ASSERT_TRUE(validate_run_report(fresh).empty());
  EXPECT_EQ(fresh.find("classify")->find("learned"), nullptr);
  EXPECT_EQ(fresh.find("classify")->find("closure"), nullptr);
  const JsonValue* counters = fresh.find("metrics")->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->find("learned.assignments"), nullptr);
  EXPECT_EQ(counters->find("learned.dropped"), nullptr);
}

// An old report that still carries the retired tier blocks stays valid,
// because the validator ignores unknown keys.
TEST(RunReportValidate, AcceptsRetiredTierBlocks) {
  const JsonValue fresh =
      round_trip(classify_run_report("c17", "1", classify_c17()));
  ASSERT_TRUE(validate_run_report(fresh).empty());
  JsonValue old = fresh;
  JsonValue classify = *fresh.find("classify");
  JsonValue learned = JsonValue::object();
  learned.set("assignments", JsonValue::number(std::uint64_t{13}));
  learned.set("dropped", JsonValue::number(std::uint64_t{0}));
  classify.set("learned", std::move(learned));
  classify.set("closure", JsonValue::string("retired"));
  old.set("classify", std::move(classify));
  EXPECT_TRUE(validate_run_report(round_trip(old)).empty());
}

// The optional subtree-replay block: a run that used the cache carries
// its counters in the report and the metrics registry; one that did
// not carries neither.
TEST(RunReport, MemoBlockConformsToSchemaAndFeedsMetrics) {
  RdIdentification rd = classify_c432();
  ASSERT_TRUE(rd.classify.memo.has_value());
  const JsonValue real = round_trip(classify_run_report("c432", "1", rd));
  EXPECT_TRUE(validate_run_report(real).empty());
  const JsonValue* real_memo = real.find("classify")->find("memo");
  ASSERT_NE(real_memo, nullptr);
  EXPECT_EQ(real_memo->find("hits")->as_uint64(), rd.classify.memo->hits);
  EXPECT_GT(real_memo->find("hits")->as_uint64(), 0u);

  rd.classify.memo = MemoStats{40, 9, 123};

  MetricsRegistry metrics;
  record_classify_metrics(rd.classify, metrics);
  const JsonValue report =
      round_trip(classify_run_report("c17", "1", rd, &metrics));
  EXPECT_TRUE(validate_run_report(report).empty());
  const JsonValue* memo = report.find("classify")->find("memo");
  ASSERT_NE(memo, nullptr);
  EXPECT_EQ(memo->find("lookups")->as_uint64(), 40u);
  EXPECT_EQ(memo->find("hits")->as_uint64(), 9u);
  EXPECT_EQ(memo->find("replayed_work")->as_uint64(), 123u);
  const JsonValue* counters = report.find("metrics")->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->find("memo.lookups")->as_uint64(), 40u);
  EXPECT_EQ(counters->find("memo.hits")->as_uint64(), 9u);
  EXPECT_EQ(counters->find("memo.replayed_work")->as_uint64(), 123u);

  // c17 is below the cache's size floor, so its run used no cache.
  const RdIdentification small = classify_c17();
  ASSERT_FALSE(small.classify.memo.has_value());
  MetricsRegistry plain_metrics;
  record_classify_metrics(small.classify, plain_metrics);
  const JsonValue plain =
      round_trip(classify_run_report("c17", "1", small, &plain_metrics));
  EXPECT_TRUE(validate_run_report(plain).empty());
  EXPECT_EQ(plain.find("classify")->find("memo"), nullptr);
  EXPECT_EQ(plain.find("metrics")->find("counters")->find("memo.hits"),
            nullptr);
}

TEST(RunReportValidate, RejectsMalformedMemoBlock) {
  RdIdentification rd = classify_c17();
  rd.classify.memo = MemoStats{4, 1, 2};
  const JsonValue pristine = round_trip(classify_run_report("c17", "1", rd));
  ASSERT_TRUE(validate_run_report(pristine).empty());
  ASSERT_NE(pristine.find("classify")->find("memo"), nullptr);
  JsonValue report = pristine;

  JsonValue classify = *pristine.find("classify");
  classify.set("memo", JsonValue::number(std::uint64_t{3}));
  report.set("classify", classify);
  EXPECT_TRUE(has_problem(validate_run_report(report),
                          "\"classify.memo\" is not an object"));

  classify = *pristine.find("classify");
  JsonValue no_hits = JsonValue::object();
  for (const auto& [name, value] : classify.find("memo")->members())
    if (name != "hits") no_hits.set(name, value);
  classify.set("memo", std::move(no_hits));
  report.set("classify", classify);
  EXPECT_TRUE(has_problem(validate_run_report(report),
                          "missing key \"hits\" in classify.memo"));

  classify = *pristine.find("classify");
  JsonValue bad_count = *classify.find("memo");
  bad_count.set("replayed_work", JsonValue::string("lots"));
  classify.set("memo", std::move(bad_count));
  report.set("classify", classify);
  EXPECT_TRUE(has_problem(validate_run_report(report),
                          "\"classify.memo.replayed_work\" is not a number"));
}

// ---- file output ----------------------------------------------------------

TEST(RunReport, WriteJsonFileRoundTripsThroughDisk) {
  const std::string path = testing::TempDir() + "rd_run_report_test.json";
  const RdIdentification rd = classify_c17();
  write_json_file(path, classify_run_report("c17", "heu1", rd));

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
  EXPECT_TRUE(validate_run_report(parse_json(text)).empty());
  std::remove(path.c_str());
}

TEST(RunReport, WriteJsonFileThrowsOnUnwritablePath) {
  EXPECT_THROW(write_json_file("/nonexistent-dir/report.json",
                               run_report_envelope("bench")),
               std::runtime_error);
}

}  // namespace
}  // namespace rd
