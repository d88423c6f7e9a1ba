#!/usr/bin/env bash
# ThreadSanitizer gate for the parallel classification engine.
#
# Configures a dedicated build tree with -DRD_ENABLE_TSAN=ON, builds
# the `tsan_tests` aggregate target, and runs every test carrying the
# `tsan` ctest label — the tests that exercise cross-thread state (the
# seed-sharded parallel classifier, its property-based invariants under
# every thread count, and the heuristics, whose FS/NR pre-runs are
# parallel classifications).  The label set
# lives in tests/CMakeLists.txt (rd_add_test ... LABELS tsan):
# registering a new test there enrolls it in this gate automatically —
# this script never hand-lists test binaries, so a new target cannot
# be silently skipped.  Intended as the CI step for any change
# touching util/thread_pool or the classify driver (core/classify.cpp):
#
#   scripts/check_tsan.sh [build-dir]
#
# Exits nonzero on any test failure or reported race.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DRD_ENABLE_TSAN=ON
cmake --build "$BUILD_DIR" -j"$(nproc)" --target tsan_tests

# halt_on_error turns the first reported race into a test failure.
# ctest runs from each test's WORKING_DIRECTORY (the repo root), so
# data/ paths resolve as in the plain suite.
export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"
ctest --test-dir "$BUILD_DIR" -L tsan --output-on-failure

echo "TSAN gate passed"
