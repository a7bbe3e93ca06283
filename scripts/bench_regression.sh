#!/usr/bin/env bash
# Seeded mine+serve workload for the CI bench-regression job. Every
# number this produces and compares is a deterministic work counter
# (src/obs): wall-clock never enters the gate, so it holds on slow,
# noisy, single-core runners.
#
#   bench_regression.sh <build-dir>             # compare to baseline
#   bench_regression.sh <build-dir> --refresh   # rewrite the baseline
#
# The one-command baseline refresh after an intentional change to the
# mining pipeline or the instrumentation:
#
#   scripts/bench_regression.sh build --refresh
#
# Set BENCH_ARTIFACT_DIR to keep the metrics JSON files (CI uploads
# them as artifacts).
set -euo pipefail

BUILD=${1:?usage: bench_regression.sh <build-dir> [--refresh]}
MODE=${2:-}
REPO=$(cd "$(dirname "$0")/.." && pwd)
BASELINE="$REPO/bench/baselines/counters_baseline.json"
WORK=$(mktemp -d)
SERVE_PID=

cleanup() {
  if [ -n "$SERVE_PID" ]; then
    kill "$SERVE_PID" 2>/dev/null || true
    wait "$SERVE_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

# --- Phase 1: seeded dataset + mine -----------------------------------
# The workload is a pure function of these flags; --threads only changes
# scheduling, never the work counters (tests/obs_test.cc asserts this).
"$BUILD/tools/graphsig_datagen" --screen=MCF-7 --size=60 --seed=3 \
  --active-fraction=0.3 --output="$WORK/screen.smi" >/dev/null

"$BUILD/tools/graphsig_mine" --input="$WORK/screen.smi" --active-only \
  --radius=4 --threads=2 --metrics-out="$WORK/mine_metrics.json" >/dev/null

# The approx tier's counters (samples drawn, walk steps, iso tests) are
# deterministic for a fixed seed, so they gate exactly like mining's.
"$BUILD/tools/graphsig_sample" --input="$WORK/screen.smi" --mode=topk \
  --k=5 --edges=3 --samples=400 --support-samples=64 --seed=11 \
  --threads=2 --metrics-out="$WORK/sample_metrics.json" >/dev/null

# Per-kernel counter phases (packed dominance, VF2, FVMine heap traffic):
# fixed seeds, work counters only — wall clock never recorded.
"$BUILD/bench/bench_micro_kernels" \
  --counters-out="$WORK/micro_metrics.json" >/dev/null

# --- Phase 1b: streaming ingest (seeded append workload) --------------
# Append two seeded batches to a fresh log and mine after each, the
# second mine in Tarone mode. Only the second call dumps its metrics, so
# this phase gates the log counters (stream/log_*), the Tarone counters
# (stream/tarone_*) and the mining counters of a cold mine of the whole
# 60-graph log. Byte-identity of a streamed mine against a cold one is
# tier-1 (tests/stream_test.cc).
"$BUILD/tools/graphsig_datagen" --screen=MCF-7 --size=40 --seed=5 \
  --active-fraction=0.3 --output="$WORK/batch1.smi" >/dev/null
"$BUILD/tools/graphsig_datagen" --screen=MCF-7 --size=20 --seed=6 \
  --active-fraction=0.3 --output="$WORK/batch2.smi" >/dev/null

"$BUILD/tools/graphsig_ingest" --log="$WORK/stream.gsl" \
  --append="$WORK/batch1.smi" --mine --radius=4 --threads=2 >/dev/null
"$BUILD/tools/graphsig_ingest" --log="$WORK/stream.gsl" \
  --append="$WORK/batch2.smi" --mine --tarone-alpha=0.05 --radius=4 \
  --threads=2 --metrics-out="$WORK/ingest_metrics.json" >/dev/null

# --- Phase 2: serve the indexed model, replay a seeded query load -----
"$BUILD/tools/graphsig_index" --input="$WORK/screen.smi" \
  --output="$WORK/model.gsig" --radius=4 --threads=2 >/dev/null

# --max-inflight far above the offered load: RETRY_LATER must never
# fire, or the served-request counters would depend on timing.
"$BUILD/tools/graphsig_serve" --model="$WORK/model.gsig" --port=0 \
  --max-inflight=4096 --metrics-out="$WORK/serve_metrics.json" \
  >"$WORK/serve.out" 2>"$WORK/serve.err" &
SERVE_PID=$!

PORT=
for _ in $(seq 1 100); do
  PORT=$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\)$/\1/p' "$WORK/serve.out")
  [ -n "$PORT" ] && break
  kill -0 "$SERVE_PID" 2>/dev/null || { cat "$WORK/serve.err" >&2; exit 1; }
  sleep 0.1
done
if [ -z "$PORT" ]; then
  echo "bench_regression: failed to scrape port from serve output:" >&2
  cat "$WORK/serve.out" "$WORK/serve.err" >&2
  exit 1
fi

# --mix routes a fixed, seed-determined quarter of the schedule through
# the approx query class, so the served-side approx counters get pinned
# by the same baseline as the exact ones.
"$BUILD/tools/graphsig_loadgen" --port="$PORT" --input="$WORK/screen.smi" \
  --qps=400 --count=100 --connections=2 --seed=7 \
  --mix=0.25 --approx-samples=32 \
  --json="$WORK/loadgen.json"

kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
SERVE_PID=

if [ -n "${BENCH_ARTIFACT_DIR:-}" ]; then
  mkdir -p "$BENCH_ARTIFACT_DIR"
  cp "$WORK/mine_metrics.json" "$WORK/sample_metrics.json" \
     "$WORK/serve_metrics.json" "$WORK/micro_metrics.json" \
     "$WORK/ingest_metrics.json" "$WORK/loadgen.json" \
     "$BENCH_ARTIFACT_DIR/"
fi

# --- Phase 3: gate on the deterministic counters ----------------------
if [ "$MODE" = "--refresh" ]; then
  python3 "$REPO/scripts/check_counters.py" --refresh \
    --baseline="$BASELINE" \
    mine="$WORK/mine_metrics.json" sample="$WORK/sample_metrics.json" \
    serve="$WORK/serve_metrics.json" \
    micro="$WORK/micro_metrics.json" \
    ingest="$WORK/ingest_metrics.json"
else
  python3 "$REPO/scripts/check_counters.py" \
    --baseline="$BASELINE" \
    mine="$WORK/mine_metrics.json" sample="$WORK/sample_metrics.json" \
    serve="$WORK/serve_metrics.json" \
    micro="$WORK/micro_metrics.json" \
    ingest="$WORK/ingest_metrics.json"
fi
