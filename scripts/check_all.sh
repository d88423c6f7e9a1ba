#!/usr/bin/env bash
# Full verification ladder: everything CI runs, in order, stopping at
# the first failure.
#
#   scripts/check_all.sh
#
#   1. Release build + the complete ctest suite (including the
#      fault-injected CLI abort fixtures),
#   2. the AddressSanitizer gate (scripts/check_asan.sh),
#   3. the ThreadSanitizer gate (scripts/check_tsan.sh),
#   4. the quick benchmark sweep with JSON validation
#      (scripts/run_bench.sh), which also gates the serve and eco
#      claims via scripts/compare_bench.py --serve / --eco,
#   5. the exact gates: a fresh full bench_table2 run must match the
#      committed BENCH_table2.json on every deterministic field (kept
#      counts, work, implication counters, prerun_work, sort digests),
#      and a fresh bench_testset --quick run the committed
#      BENCH_testset.json (must-test counts, test counts, ATPG search
#      nodes) -- no tolerance, timings and the workers/memo blocks
#      skipped (scripts/compare_bench.py diff mode),
#   6. the end-to-end benchmark's own checker (perfbench/run.py
#      --self-test): a corrupted kept count and a flipped detection
#      class must both be caught, so its verdict checks still bite.
#
# Each stage uses its own build tree (build-release, build-asan,
# build-tsan, build-bench, .bench_build; stage 5 reuses build-release),
# so an aborted run never leaves a mixed configuration behind.  Exits
# nonzero on the first failing stage.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== [1/6] Release build + ctest"
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-release -j"$(nproc)"
ctest --test-dir build-release --output-on-failure -j"$(nproc)"

echo "== [2/6] ASAN gate"
scripts/check_asan.sh

echo "== [3/6] TSAN gate"
scripts/check_tsan.sh

echo "== [4/6] benchmark sweep + JSON validation + serve/eco gates"
scripts/run_bench.sh

echo "== [5/6] exact gates (fresh bench_table2 and bench_testset --quick)"
gate_dir="$(mktemp -d)"
trap 'rm -rf "$gate_dir"' EXIT
build-release/bench/bench_table2 --json="$gate_dir/BENCH_table2.json" \
  > /dev/null
build-release/bench/bench_testset --quick \
  --json="$gate_dir/BENCH_testset.json" > /dev/null
for name in table2 testset; do
  build-release/examples/rdfast_cli validate-json \
    "$gate_dir/BENCH_$name.json"
  python3 scripts/compare_bench.py "BENCH_$name.json" \
    "$gate_dir/BENCH_$name.json"
done

echo "== [6/6] benchmark checker self-test"
python3 perfbench/run.py --self-test

echo "check_all: every gate passed"
