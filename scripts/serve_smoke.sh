#!/usr/bin/env bash
# Loopback smoke for the serving pipeline: for each workload shape
# (exact-only, then mixed exact/approx), start graphsig_serve on an
# ephemeral port, drive a short verified workload with graphsig_loadgen,
# cross-check the server's Stats-RPC counters against the client-side
# tallies, then SIGTERM the server and require a clean drain. Used by
# the tool_serve_loadgen ctest and the CI server-smoke job.
#
#   serve_smoke.sh <graphsig_serve> <graphsig_loadgen> <model> <workload>
set -euo pipefail

SERVE_BIN=$1
LOADGEN_BIN=$2
MODEL=$3
WORKLOAD=$4

OUT=$(mktemp)
ERR=$(mktemp)
JSON=$(mktemp)
SERVE_PID=

# The trap must reap as well as kill: exiting mid-run with only a kill
# races the server's own drain (and on a recycled PID would signal an
# unrelated process); wait-ing pins the PID until we know it is gone.
cleanup() {
  if [ -n "$SERVE_PID" ]; then
    kill "$SERVE_PID" 2>/dev/null || true
    wait "$SERVE_PID" 2>/dev/null || true
  fi
  rm -f "$OUT" "$ERR" "$JSON"
}
trap cleanup EXIT

# One run: load at mix fraction $1, verify replies against the model
# and the Stats counters against the tally.
run_case() {
  local mix=$1
  : >"$OUT"; : >"$ERR"

  "$SERVE_BIN" --model="$MODEL" --port=0 >"$OUT" 2>"$ERR" &
  SERVE_PID=$!

  # Scrape the port inside the wait loop and fail loudly with the
  # server's output if it never appears — a pattern drift in the
  # "listening on" line must break the smoke, not silently hand sed an
  # empty match.
  local port=
  for _ in $(seq 1 100); do
    port=$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\)$/\1/p' "$OUT")
    [ -n "$port" ] && break
    kill -0 "$SERVE_PID" 2>/dev/null || { cat "$ERR" >&2; exit 1; }
    sleep 0.1
  done
  if [ -z "$port" ]; then
    echo "serve_smoke: failed to scrape port from serve output:" >&2
    cat "$OUT" "$ERR" >&2
    exit 1
  fi

  # --mix sends a deterministic slice of the schedule as approx
  # (sampled-support) queries; mix=0 keeps the run exact-only.
  "$LOADGEN_BIN" --port="$port" --input="$WORKLOAD" --qps=150 --duration=1 \
    --connections=2 --seed=7 --mix="$mix" --approx-samples=32 \
    --verify-model="$MODEL" --json="$JSON"

  # The server's Stats-RPC counters must agree exactly with what the
  # client observed: every ok reply was a served request (split by class
  # into serve/queries and serve/approx_queries), every RETRY_LATER was
  # counted as a sent retry, and the received frames are the requests
  # plus the one Stats frame that took the snapshot.
  python3 - "$JSON" "$mix" <<'EOF'
import json, sys

report = json.load(open(sys.argv[1]))
mix = float(sys.argv[2])
totals, server = report["totals"], report["server"]
failures = []

def expect(name, got, want):
    if got != want:
        failures.append(f"{name}: server reports {got}, client saw {want}")

expect("requests_served", server["requests_served"], totals["ok"])
expect("retries_sent", server["retries_sent"], totals["retry_later"])
expect("frames_received", server["frames_received"],
       totals["ok"] + totals["retry_later"] + 1)
if mix > 0 and totals["ok_approx"] == 0:
    failures.append("mixed workload produced no ok approx replies")
if mix == 0 and totals["ok_approx"] != 0:
    failures.append("exact-only workload produced approx replies")
if not server["work_counters"]:
    failures.append("stats reply carries no work counters")
else:
    counters = server["work_counters"]
    expect("work counter serve/queries", counters.get("serve/queries"),
           totals["ok_exact"])
    if mix > 0:
        expect("work counter serve/approx_queries",
               counters.get("serve/approx_queries"), totals["ok_approx"])
        # Frame counters tick on receipt, so a RETRY_LATER'd approx frame
        # counts here without producing an ok reply; exact equality only
        # holds on a retry-free run.
        if totals["retry_later"] == 0:
            expect("work counter net/frames/approx_query",
                   counters.get("net/frames/approx_query"),
                   totals["ok_approx"])
        elif counters.get("net/frames/approx_query", 0) < totals["ok_approx"]:
            failures.append("net/frames/approx_query below ok approx replies")
        if counters.get("approx/samples_drawn", 0) <= 0:
            failures.append("approx queries drew no samples")

for f in failures:
    print(f"serve_smoke[mix={mix}]: stats mismatch - {f}", file=sys.stderr)
sys.exit(1 if failures else 0)
EOF

  kill -TERM "$SERVE_PID"
  wait "$SERVE_PID"
  SERVE_PID=
  grep -q "drained:" "$ERR" || {
    echo "server did not drain (mix=$mix)" >&2
    cat "$ERR" >&2
    exit 1
  }
}

for mix in 0 0.3; do
  echo "serve_smoke: mix=$mix"
  run_case "$mix"
done
