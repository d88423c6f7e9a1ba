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
#      (scripts/run_bench.sh), which also gates the compiled-engine,
#      path-tree and small-circuit claims via
#      scripts/compare_bench.py --self, and the committed-baseline
#      trend via --trend.
#
# Each stage uses its own build tree (build-release, build-asan,
# build-tsan, build-bench), so an aborted run never leaves a mixed
# configuration behind.  Exits nonzero on the
# first failing stage.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== [1/4] Release build + ctest"
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-release -j"$(nproc)"
ctest --test-dir build-release --output-on-failure -j"$(nproc)"

echo "== [2/4] ASAN gate"
scripts/check_asan.sh

echo "== [3/4] TSAN gate"
scripts/check_tsan.sh

echo "== [4/4] benchmark sweep + JSON validation + speedup gates"
scripts/run_bench.sh

echo "check_all: every gate passed"
