#!/bin/sh
# Exit-code fixture, run by ctest (the removed-flag fixtures in
# tests/CMakeLists.txt).
#
#   expect_exit.sh <code> <stderr-regex> <command> [args...]
#
# Runs the command and passes iff it exits with exactly <code> and its
# combined output matches <stderr-regex> (grep -E).  ctest's
# PASS_REGULAR_EXPRESSION ignores the exit status, so fixtures that pin
# a usage error's exit 2 go through this wrapper.
set -u

EXPECTED="$1"
PATTERN="$2"
shift 2

OUTPUT=$("$@" 2>&1)
STATUS=$?
printf '%s\n' "$OUTPUT"
if [ "$STATUS" -ne "$EXPECTED" ]; then
  echo "expect_exit: exit $STATUS, expected $EXPECTED" >&2
  exit 1
fi
if ! printf '%s\n' "$OUTPUT" | grep -Eq -- "$PATTERN"; then
  echo "expect_exit: output does not match '$PATTERN'" >&2
  exit 1
fi
exit 0
