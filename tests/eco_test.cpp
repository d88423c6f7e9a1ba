// Incremental (ECO) reclassification (DESIGN.md §13): warm runs over a
// seeded cone cache must be bit-identical to cold runs at every thread
// count, an edit must invalidate exactly the cones containing the
// edited gate, the sort-free fus criterion must agree with the
// whole-circuit engine, and the disk round trip must hand a later
// process the same verdicts.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "cache/eco_classify.h"
#include "core/heuristics.h"
#include "gen/examples.h"
#include "gen/iscas_like.h"
#include "netlist/compiled.h"
#include "netlist/cone_signature.h"
#include "netlist/transform.h"

namespace rd {
namespace {

std::vector<Circuit> fixtures() {
  std::vector<Circuit> circuits;
  circuits.push_back(paper_example_circuit());
  circuits.push_back(c17());
  circuits.push_back(make_benchmark("c432"));
  IscasProfile profile;
  profile.name = "eco_fix";
  profile.num_inputs = 8;
  profile.num_outputs = 4;
  profile.num_gates = 30;
  profile.num_levels = 5;
  profile.xor_fraction = 0.1;
  profile.seed = 11;
  circuits.push_back(make_iscas_like(profile));
  return circuits;
}

/// First gate whose AND<->OR / NAND<->NOR swap is a legal edit.
Circuit edited_copy(const Circuit& circuit, GateId* edited_gate = nullptr) {
  for (GateId g = 0; g < circuit.num_gates(); ++g) {
    const GateType t = circuit.gate(g).type;
    if (t == GateType::kAnd || t == GateType::kNand) {
      if (edited_gate != nullptr) *edited_gate = g;
      return with_gate_type(
          circuit, g, t == GateType::kAnd ? GateType::kOr : GateType::kNor);
    }
  }
  ADD_FAILURE() << circuit.name() << " has no editable gate";
  return circuit;
}

void expect_same_deterministic_fields(const ClassifyResult& a,
                                      const ClassifyResult& b,
                                      const std::string& label) {
  EXPECT_EQ(a.completed, b.completed) << label;
  EXPECT_EQ(a.abort_reason, b.abort_reason) << label;
  EXPECT_EQ(a.kept_paths, b.kept_paths) << label;
  EXPECT_EQ(a.total_logical, b.total_logical) << label;
  EXPECT_EQ(a.rd_paths, b.rd_paths) << label;
  EXPECT_EQ(a.rd_percent, b.rd_percent) << label;
  EXPECT_EQ(a.work, b.work) << label;
  EXPECT_EQ(a.implication.assignments, b.implication.assignments) << label;
  EXPECT_EQ(a.implication.propagations, b.implication.propagations) << label;
  EXPECT_EQ(a.implication.conflicts, b.implication.conflicts) << label;
  EXPECT_EQ(a.implication.backward, b.implication.backward) << label;
  EXPECT_EQ(a.kept_keys, b.kept_keys) << label;
}

// The tentpole differential: a warm incremental run after an edit is
// bit-identical to a cold full run of the edited circuit, at 1, 2 and
// 4 threads, with key collection on.
TEST(Eco, WarmAfterEditEqualsColdAcrossThreadCounts) {
  for (const Circuit& circuit : fixtures()) {
    const Circuit edited = edited_copy(circuit);
    for (const std::size_t threads : {1u, 2u, 4u}) {
      EcoOptions options;
      options.base.num_threads = threads;
      options.base.collect_paths_limit = 32;

      ConeCacheStore cold_store;
      const EcoResult cold = classify_eco(edited, cold_store, options);
      ASSERT_TRUE(cold.classify.completed);
      EXPECT_EQ(cold.stats.hits, 0u);
      EXPECT_EQ(cold.stats.misses, cold.stats.cones);

      ConeCacheStore warm_store;
      classify_eco(circuit, warm_store, options);  // seed with pre-edit run
      const EcoResult warm = classify_eco(edited, warm_store, options);

      const std::string label =
          circuit.name() + " threads=" + std::to_string(threads);
      expect_same_deterministic_fields(warm.classify, cold.classify, label);
      EXPECT_EQ(warm.stats.cones, cold.stats.cones) << label;
      // The edit leaves at least one untouched cone in multi-output
      // fixtures; single-output fixtures simply reclassify their cone.
      if (circuit.outputs().size() > 1) {
        EXPECT_GT(warm.stats.hits, 0u) << label;
      }
    }
  }
}

// An edit must invalidate exactly the cones whose fan-in contains the
// edited gate — the cache hit/miss split is structural, not heuristic.
TEST(Eco, EditInvalidatesExactlyTheTouchedCones) {
  for (const Circuit& circuit : fixtures()) {
    GateId edited_gate = kNullGate;
    const Circuit edited = edited_copy(circuit, &edited_gate);

    std::uint64_t touched = 0;
    for (const GateId po : circuit.outputs()) {
      const ConeExtraction ex = extract_cone_canonical(circuit, po);
      for (const GateId parent : ex.parent_gate)
        if (parent == edited_gate) {
          ++touched;
          break;
        }
    }

    EcoOptions options;
    ConeCacheStore store;
    classify_eco(circuit, store, options);
    const EcoResult warm = classify_eco(edited, store, options);
    EXPECT_EQ(warm.stats.misses, touched) << circuit.name();
    EXPECT_EQ(warm.stats.hits, warm.stats.cones - touched) << circuit.name();
  }
}

// The fus criterion is sort-free, so the per-cone decomposition must
// reproduce the whole-circuit engine's verdict counts exactly.  (work
// and implication counters legitimately differ: the monolithic DFS
// shares path prefixes across POs, the cone sweep does not.)
TEST(Eco, FusAgreesWithTheWholeCircuitEngine) {
  for (const Circuit& circuit : fixtures()) {
    EcoOptions options;
    options.sort_spec = "fus";
    ConeCacheStore store;
    const EcoResult eco = classify_eco(circuit, store, options);
    const ClassifyResult whole = classify_fus(circuit);
    ASSERT_TRUE(eco.classify.completed) << circuit.name();
    EXPECT_EQ(eco.classify.kept_paths, whole.kept_paths) << circuit.name();
    EXPECT_EQ(eco.classify.total_logical, whole.total_logical)
        << circuit.name();
    EXPECT_EQ(eco.classify.rd_paths, whole.rd_paths) << circuit.name();
  }
}

// Cached keys are stored in cone-local numbering and mapped back
// through parent_lead on reuse; every reused key must still describe a
// surviving path of the *parent* circuit.
TEST(Eco, ReusedKeysSurviveOnTheParentCircuit) {
  const Circuit circuit = c17();
  EcoOptions options;
  options.sort_spec = "fus";
  options.base.collect_paths_limit = 64;

  ConeCacheStore store;
  classify_eco(circuit, store, options);           // seed
  const EcoResult warm = classify_eco(circuit, store, options);
  EXPECT_EQ(warm.stats.hits, warm.stats.cones);
  ASSERT_FALSE(warm.classify.kept_keys.empty());
  for (const std::vector<std::uint32_t>& key : warm.classify.kept_keys) {
    LogicalPath path;
    path.path.leads.assign(key.begin(), key.end() - 1);
    path.final_pi_value = key.back() != 0;
    EXPECT_TRUE(path_survives_local_implications(
        circuit, path, Criterion::kFunctionalSensitizable));
  }
}

// A record without keys cannot serve a keyed run: the store upgrades
// monotonically (fresh richer record replaces the poor one), and the
// upgraded record then serves later keyed runs.
TEST(Eco, KeyDemandUpgradesKeylessRecords) {
  const Circuit circuit = c17();
  EcoOptions keyless;
  ConeCacheStore store;
  classify_eco(circuit, store, keyless);  // records with no keys

  EcoOptions keyed;
  keyed.base.collect_paths_limit = 64;
  ConeCacheStore reference_store;
  const EcoResult cold = classify_eco(circuit, reference_store, keyed);
  const EcoResult upgrade = classify_eco(circuit, store, keyed);
  EXPECT_EQ(upgrade.stats.misses, upgrade.stats.cones);
  expect_same_deterministic_fields(upgrade.classify, cold.classify, "upgrade");

  const EcoResult warm = classify_eco(circuit, store, keyed);
  EXPECT_EQ(warm.stats.hits, warm.stats.cones);
  expect_same_deterministic_fields(warm.classify, cold.classify, "warm");
}

// The disk round trip: a later process loading the saved cache serves
// every cone from disk and reproduces the cold verdicts bit for bit.
TEST(Eco, DiskRoundTripServesEveryConeIdentically) {
  const std::string dir = ::testing::TempDir() + "/rd_eco_roundtrip";
  ::mkdir(dir.c_str(), 0755);
  for (const Circuit& circuit : fixtures()) {
    EcoOptions options;
    options.base.collect_paths_limit = 16;
    ConeCacheStore writer;
    const EcoResult cold = classify_eco(circuit, writer, options);
    writer.save(dir);

    ConeCacheStore reader;
    EXPECT_EQ(reader.load(dir).total(), 0u);
    const EcoResult warm = classify_eco(circuit, reader, options);
    EXPECT_EQ(warm.stats.hits, warm.stats.cones) << circuit.name();
    EXPECT_EQ(warm.stats.misses, 0u) << circuit.name();
    expect_same_deterministic_fields(warm.classify, cold.classify,
                                     circuit.name());
  }
}

// Heuristic 1 and the inverse control are cacheable too: the per-cone
// sort is a pure function of the cone, so warm == cold for them as
// well.
TEST(Eco, OtherSortSpecsAreDeterministicallyCacheable) {
  const Circuit circuit = c17();
  for (const std::string spec : {"1", "inverse"}) {
    EcoOptions options;
    options.sort_spec = spec;
    options.base.collect_paths_limit = 16;
    ConeCacheStore cold_store;
    const EcoResult cold = classify_eco(circuit, cold_store, options);
    ConeCacheStore warm_store;
    classify_eco(circuit, warm_store, options);
    const EcoResult warm = classify_eco(circuit, warm_store, options);
    EXPECT_EQ(warm.stats.hits, warm.stats.cones) << spec;
    expect_same_deterministic_fields(warm.classify, cold.classify, spec);
  }
}

// Aborts stay typed in eco mode: a starved per-cone work budget stops
// the sweep with kWorkBudget, and nothing half-finished is cached.
TEST(Eco, WorkBudgetAbortIsTypedAndUncached) {
  const Circuit circuit = make_benchmark("c432");
  EcoOptions options;
  options.base.work_limit = 1;
  ConeCacheStore store;
  const EcoResult aborted = classify_eco(circuit, store, options);
  EXPECT_FALSE(aborted.classify.completed);
  EXPECT_EQ(aborted.classify.abort_reason, AbortReason::kWorkBudget);
  EXPECT_EQ(aborted.stats.stored, 0u);
  EXPECT_EQ(store.stats().records, 0u);

  // A tripped guard surfaces its own reason the same way.
  EcoOptions guarded;
  ExecGuard guard;
  guard.inject_trip_at(50, AbortReason::kDeadline);
  guarded.base.guard = &guard;
  ConeCacheStore guard_store;
  const EcoResult tripped = classify_eco(circuit, guard_store, guarded);
  EXPECT_FALSE(tripped.classify.completed);
  EXPECT_EQ(tripped.classify.abort_reason, AbortReason::kDeadline);
}

TEST(Eco, RejectsUnsupportedOptionCombinations) {
  const Circuit circuit = c17();
  ConeCacheStore store;
  {
    EcoOptions options;
    options.sort_spec = "zigzag";
    EXPECT_THROW(classify_eco(circuit, store, options), std::invalid_argument);
  }
  {
    EcoOptions options;
    options.base.collect_lead_counts = true;
    EXPECT_THROW(classify_eco(circuit, store, options), std::invalid_argument);
  }
  {
    EcoOptions options;
    const InputSort sort = InputSort::natural(circuit);
    options.base.sort = &sort;
    EXPECT_THROW(classify_eco(circuit, store, options), std::invalid_argument);
  }
  {
    // The driver compiles per cone; a caller-supplied whole-circuit
    // compiled view cannot apply to cone-local gate ids.
    EcoOptions options;
    const CompiledCircuit compiled(circuit);
    options.base.compiled = &compiled;
    EXPECT_THROW(classify_eco(circuit, store, options), std::invalid_argument);
  }
}

}  // namespace
}  // namespace rd
