#!/usr/bin/env bash
# Benchmark sweep with machine-readable output.
#
# Builds the bench harnesses in a Release tree and runs each one with
# --json, producing BENCH_<name>.json run reports (schema documented in
# DESIGN.md) next to this repo's root.  Every emitted file is validated
# by the project's own parser (rdfast_cli validate-json); the script
# exits nonzero if any bench binary fails or any report does not
# round-trip.
#
#   scripts/run_bench.sh [build-dir]
#
# BENCH_ARGS overrides the default per-binary arguments (default
# "--quick" so the sweep is a minutes-scale smoke run; clear it for the
# full tables: BENCH_ARGS="" scripts/run_bench.sh).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-bench}"
ARGS="${BENCH_ARGS---quick}"

# bench_table2 and bench_testset are not in the sweep: they are the
# exact gates in scripts/check_all.sh, diffed against the committed
# BENCH_table2.json and BENCH_testset.json, which a sweep must not
# overwrite.
BENCHES=(table1 table3 ablation approx figures serve eco)

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
TARGETS=(rdfast_cli)
for name in "${BENCHES[@]}"; do TARGETS+=("bench_$name"); done
cmake --build "$BUILD_DIR" -j"$(nproc)" --target "${TARGETS[@]}"

status=0
for name in "${BENCHES[@]}"; do
  out="BENCH_${name}.json"
  echo "== bench_$name $ARGS --json=$out"
  # shellcheck disable=SC2086  # ARGS is intentionally word-split
  if ! "$BUILD_DIR/bench/bench_$name" $ARGS --json="$out"; then
    echo "bench_$name FAILED" >&2
    status=1
    continue
  fi
  if ! "$BUILD_DIR/examples/rdfast_cli" validate-json "$out"; then
    echo "bench_$name emitted an invalid report: $out" >&2
    status=1
  fi
done

# Gate the daemon claims: the bench_serve mixed replay must cover at
# least 2000 requests with zero errors, hit the compiled-circuit cache
# at >= 95%, stay bit-identical to the one-shot session, and abort the
# fault-injected probe with a typed reason while the replay completes.
# Override the floors: RD_MIN_SERVE_REQUESTS / RD_MIN_SERVE_HIT_RATE.
if [ "$status" -eq 0 ]; then
  if ! python3 scripts/compare_bench.py --serve BENCH_serve.json \
       --min-requests "${RD_MIN_SERVE_REQUESTS:-2000}" \
       --min-hit-rate "${RD_MIN_SERVE_HIT_RATE:-0.95}"; then
    echo "bench_serve daemon gate FAILED" >&2
    status=1
  fi
fi

# Gate the incremental (ECO) claims: bench_eco's edit sequences must
# show every warm incremental run bit-identical to cold full
# reclassification, strictly fewer reclassified cones than the full
# flow, and a measurable wall-clock speedup at or above the floor.
# Override the floor: RD_MIN_ECO_SPEEDUP=1.2 scripts/run_bench.sh
if [ "$status" -eq 0 ]; then
  if ! python3 scripts/compare_bench.py --eco BENCH_eco.json \
       --min-eco-speedup "${RD_MIN_ECO_SPEEDUP:-1.0}"; then
    echo "bench_eco incremental gate FAILED" >&2
    status=1
  fi
fi

if [ "$status" -ne 0 ]; then
  echo "benchmark sweep FAILED" >&2
fi
exit "$status"
