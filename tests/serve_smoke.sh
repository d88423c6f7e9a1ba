#!/bin/sh
# Daemon smoke test, run by ctest (cli_serve_smoke).
#
#   serve_smoke.sh <rdfast_cli> <scratch-dir>
#
# Starts `rdfast_cli serve` on an ephemeral port, waits for the port
# file, runs one atpg request whose test generation aborts (exit 1)
# and one classify request over the socket (the request subcommand
# validates the response frame against the run-report schema and
# re-validates the saved copy with validate-json), then SIGINTs the
# server and asserts the cancellation contract from the one-shot CLI:
# exit code 130 and a typed "ABORTED (cancelled)" status line.
set -u

CLI="$1"
SCRATCH="$2"
PORT_FILE="$SCRATCH/serve_smoke.port"
RESPONSE="$SCRATCH/serve_smoke.json"
LOG="$SCRATCH/serve_smoke.log"

rm -f "$PORT_FILE" "$RESPONSE"

"$CLI" serve --port=0 --port-file="$PORT_FILE" --workers=2 >"$LOG" 2>&1 &
SERVER_PID=$!

# Wait for the daemon to publish its port (written atomically).
tries=0
while [ ! -s "$PORT_FILE" ]; do
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "FAIL: server exited before publishing its port" >&2
    cat "$LOG" >&2
    exit 1
  fi
  tries=$((tries + 1))
  if [ "$tries" -gt 100 ]; then
    echo "FAIL: timed out waiting for $PORT_FILE" >&2
    kill "$SERVER_PID" 2>/dev/null
    exit 1
  fi
  sleep 0.1
done

# ATPG aborted after its classification completed: on the cold cache
# (this runs first) the guard trips at its 100th check, inside test
# generation on c17.  The client exits 1 with the typed status, as
# `rdfast_cli atpg` does.
ATPG_OUT="$SCRATCH/serve_smoke_atpg.out"
"$CLI" request @"$PORT_FILE" --op=atpg --circuit=c17 \
    --inject-abort-after=100 --inject-abort-reason=deadline >"$ATPG_OUT" 2>&1
STATUS=$?
if [ "$STATUS" -ne 1 ] || ! grep -q "ABORTED (deadline)" "$ATPG_OUT" ||
    ! grep -q '"completed": true' "$ATPG_OUT" ||
    ! grep -q '"completed": false' "$ATPG_OUT"; then
  echo "FAIL: aborted atpg request exited $STATUS, expected 1" >&2
  cat "$ATPG_OUT" >&2
  kill "$SERVER_PID" 2>/dev/null
  exit 1
fi

# One classify over the socket; `request` exits nonzero unless the
# response validates and the run completed.
if ! "$CLI" request @"$PORT_FILE" --op=classify --circuit=c17 \
    --heuristic=2 --stats-json="$RESPONSE"; then
  echo "FAIL: classify request over the socket failed" >&2
  kill "$SERVER_PID" 2>/dev/null
  exit 1
fi
if ! "$CLI" validate-json "$RESPONSE"; then
  echo "FAIL: saved daemon response does not validate" >&2
  kill "$SERVER_PID" 2>/dev/null
  exit 1
fi

# Clean SIGINT shutdown: exit 130 with the typed ABORTED status.
kill -INT "$SERVER_PID"
wait "$SERVER_PID"
STATUS=$?
if [ "$STATUS" -ne 130 ]; then
  echo "FAIL: expected server exit 130 after SIGINT, got $STATUS" >&2
  cat "$LOG" >&2
  exit 1
fi
if ! grep -q "ABORTED (cancelled)" "$LOG"; then
  echo "FAIL: server log lacks the typed ABORTED status" >&2
  cat "$LOG" >&2
  exit 1
fi

echo "PASS: serve smoke (port $(cat "$PORT_FILE"), exit 130 on SIGINT)"
exit 0
