#!/usr/bin/env bash
# Runs the analysis micro-benchmarks and emits machine-readable JSON for
# the perf trajectory.
#
#   usage: bench/run_bench.sh [build-dir] [out.json] [min-time-seconds]
#
# The filter covers the hot analysis paths: Cal_U, the bit-packed timing
# diagram build, the blocking analysis, the multi-threaded
# determine_feasibility scaling rows (threads 1/2/4/hw on 60 streams),
# online admission churn at 20/60/200 streams (decisions/s, the
# incremental engine against full recompute), and its busy-mesh control
# rows (200 streams on 16x16, 1,000 on 32x32).  The 200-stream and
# busy-mesh churn rows run a fixed one pass per repetition, five
# repetitions, and keep only their aggregates: read the `_median` row.
# The JSON's context records the host name and CPU count.
#
# Every step runs even when svc_churn misses a gate: its exit status is
# kept, the remaining files are written, and the script then exits with
# that status and names the gate.
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_analysis.json}"
MIN_TIME="${3:-0.2}"

BIN="$BUILD_DIR/bench/perf_micro"
if [[ ! -x "$BIN" ]]; then
  echo "error: $BIN not built (cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j)" >&2
  exit 1
fi

"$BIN" \
  --benchmark_filter='BM_CalU|BM_TimingDiagramBuild|BM_BlockingAnalysis|BM_DetermineFeasibility/|BM_AdmissionChurn' \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_format=console \
  --benchmark_out_format=json \
  --benchmark_out="$OUT"

echo "wrote $OUT"

# Observability-layer costs, next to the analysis numbers: counter
# increment, histogram observe, and the span guard both disabled (the
# default state of every hot path) and enabled.
OBS_OUT="$(dirname "$OUT")/BENCH_obs.json"
"$BIN" \
  --benchmark_filter='BM_Obs' \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_format=console \
  --benchmark_out_format=json \
  --benchmark_out="$OBS_OUT"

echo "wrote $OBS_OUT"

# Flit-accurate simulator throughput: events/s and flits/s as the mesh
# and population scale (BM_FlitSimBusyMesh is the large-mesh regime:
# 1,000 streams on 32x32), plus the parallel-replication scaling rows
# (threads 1/2/4/hw; bitwise-identical results across thread counts).
FLITSIM_OUT="$(dirname "$OUT")/BENCH_flitsim.json"
"$BIN" \
  --benchmark_filter='BM_FlitSim' \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_format=console \
  --benchmark_out_format=json \
  --benchmark_out="$FLITSIM_OUT"

echo "wrote $FLITSIM_OUT"

# Service-layer throughput: admission churn through the socket server in
# four modes (no journal, durable serial, durable pipelined with group
# commit, pipelined with fsync off), replication rounds and the replay
# figures.  Emits p50/p99 per mode plus the pipelined-vs-serial speedup
# ratios the perf-smoke CI step checks; the defaults are CI's settings.
SVC_BIN="$BUILD_DIR/bench/svc_churn"
SVC_OUT="$(dirname "$OUT")/BENCH_service.json"
if [[ ! -x "$SVC_BIN" ]]; then
  echo "error: $SVC_BIN not built" >&2
  exit 1
fi

# svc_churn writes its files before it checks its gates; its stderr
# names a missed gate and is replayed here and at the end.
SVC_ERR="$(mktemp)"
trap 'rm -f "$SVC_ERR"' EXIT
SVC_STATUS=0
"$SVC_BIN" \
  --ops "${SVC_OPS:-2000}" \
  --clients "${SVC_CLIENTS:-4}" \
  --pipeline-clients "${SVC_PIPELINE_CLIENTS:-8}" \
  --batch-window "${SVC_BATCH_WINDOW:-16}" \
  --max-obs-overhead-pct "${SVC_MAX_OBS_OVERHEAD_PCT:-1}" \
  --obs-out "$SVC_OUT.obs.tmp" \
  --out "$SVC_OUT" 2> "$SVC_ERR" || SVC_STATUS=$?
cat "$SVC_ERR" >&2

echo "wrote $SVC_OUT"

# Fold the service-layer A/B (durable-pipelined with the HISTORY
# sampler + REPORT sweeps vs without, ceiling checked by svc_churn) into
# the observability artifact next to the per-operation micro costs.
if [[ -f "$SVC_OUT.obs.tmp" ]]; then
  python3 - "$OBS_OUT" "$SVC_OUT.obs.tmp" <<'PY'
import json, sys
obs = json.load(open(sys.argv[1]))
obs["svc_overhead"] = json.load(open(sys.argv[2]))
json.dump(obs, open(sys.argv[1], "w"), indent=1)
PY
  rm -f "$SVC_OUT.obs.tmp"
  echo "merged sampler+conformance A/B into $OBS_OUT"
fi

# Fault storm: kill the busiest spine link under an established
# workload, measure the eviction/reroute cascade and the time until the
# admission state reconverges, on the incremental engine vs the full
# recompute baseline.  Also audits post-storm bounds against a
# from-scratch recompute (hard failure on divergence).
STORM_BIN="$BUILD_DIR/bench/fault_storm"
STORM_OUT="$(dirname "$OUT")/BENCH_fault_storm.json"
if [[ ! -x "$STORM_BIN" ]]; then
  echo "error: $STORM_BIN not built" >&2
  exit 1
fi

"$STORM_BIN" \
  --streams "${STORM_STREAMS:-60}" \
  --storms "${STORM_OPS:-400}" \
  --out "$STORM_OUT"

echo "wrote $STORM_OUT"

if (( SVC_STATUS != 0 )); then
  GATE="$(grep -m1 -E 'below the|above the' "$SVC_ERR" || true)"
  echo "error: svc_churn exited $SVC_STATUS: ${GATE:-a call failed (see its output above)}" >&2
  exit "$SVC_STATUS"
fi
