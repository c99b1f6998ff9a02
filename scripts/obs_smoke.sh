#!/usr/bin/env bash
# Observability smoke test: boot a journaled wormrtd with the audit log
# and the history sampler on, drive real traffic, then prove the whole
# monitoring surface answers:
#
#   - `wormrt-cli health` exits 0 on a healthy daemon and the payload
#     says ok,
#   - `wormrt-top --once` renders a plain snapshot (exit 0) that counts
#     every REQUEST sent,
#   - a REPORT above an admitted channel's bound flips health to
#     degraded with a machine-readable reason, and `wormrt-cli health`
#     exits 1,
#   - HISTORY returns sampled series covering the run,
#   - SIGTERM leaves a parseable JSONL audit log with one record per
#     mutation, and the daemon's last stderr line is its METRICS reply,
#     counting every REQUEST sent.
#
#   usage: scripts/obs_smoke.sh [build-dir] [out-dir]
#
# Artifacts (audit log, HISTORY dump, daemon logs) land in out-dir for
# CI upload.
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-obs-smoke-out}"

WORMRTD="$BUILD_DIR/src/svc/wormrtd"
CLI="$BUILD_DIR/src/svc/wormrt-cli"
TOP="$BUILD_DIR/tools/wormrt-top"
for bin in "$WORMRTD" "$CLI" "$TOP"; do
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not built (cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j)" >&2
    exit 1
  fi
done

mkdir -p "$OUT_DIR"
WORK="$(mktemp -d /tmp/wormrt-obs-smoke.XXXXXX)"
SOCKET="$WORK/wormrtd.sock"
AUDIT="$OUT_DIR/audit.jsonl"
rm -f "$AUDIT" "$AUDIT.1"
DAEMON_PID=""

cleanup() {
  if [[ -n "$DAEMON_PID" ]] && kill -0 "$DAEMON_PID" 2>/dev/null; then
    kill -9 "$DAEMON_PID" 2>/dev/null || true
    wait "$DAEMON_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

"$WORMRTD" --socket "$SOCKET" --mesh 8 --threads 1 \
  --state-dir "$WORK/state" \
  --sample-interval-ms 50 \
  --audit-log "$AUDIT" \
  >"$OUT_DIR/daemon.out" 2>"$OUT_DIR/daemon.err" &
DAEMON_PID=$!
for _ in $(seq 1 200); do
  grep -q '^READY' "$OUT_DIR/daemon.out" 2>/dev/null && break
  if ! kill -0 "$DAEMON_PID" 2>/dev/null; then
    echo "error: daemon died during startup" >&2
    cat "$OUT_DIR/daemon.err" >&2
    exit 1
  fi
  sleep 0.05
done

cli() {
  "$CLI" --socket "$SOCKET" --timeout-ms 5000 "$@"
}

# Traffic: a dozen admissions (some will be removed), so the metrics,
# audit log, and history sampler all have something to show.
mutations=0
requests=0
handles=()
for i in $(seq 1 12); do
  src=$(( (i * 7) % 64 ))
  dst=$(( (i * 13 + 5) % 64 ))
  [[ "$src" -eq "$dst" ]] && dst=$(( (dst + 1) % 64 ))
  reply="$(cli request --src "$src" --dst "$dst" \
    --priority $(( i % 4 + 1 )) --period $(( 600 + i * 20 )) \
    --length $(( 8 + i % 16 )) --deadline $(( 580 + i * 20 )) || true)"
  mutations=$((mutations + 1))
  requests=$((requests + 1))
  handle="$(printf '%s' "$reply" | sed -n 's/.*"handle":\([0-9]*\).*/\1/p')"
  [[ -n "$handle" ]] && handles+=("$handle")
done
if [[ "${#handles[@]}" -lt 2 ]]; then
  echo "FAIL: expected at least 2 admissions, got ${#handles[@]}" >&2
  exit 1
fi
cli remove --handle "${handles[0]}" >/dev/null
mutations=$((mutations + 1))

# 1. Healthy daemon: health exits 0 and says ok.
health="$(cli health)"
echo "health (ok): $health"
printf '%s' "$health" | grep -q '"status":"ok"'

# 2. wormrt-top --once renders a plain snapshot.
"$TOP" --socket "$SOCKET" --once | tee "$OUT_DIR/wormrt-top.txt"
grep -q 'wormrt-top' "$OUT_DIR/wormrt-top.txt"
grep -q 'population' "$OUT_DIR/wormrt-top.txt"
if ! grep -q "requests $requests " "$OUT_DIR/wormrt-top.txt"; then
  echo "FAIL: wormrt-top does not count the $requests REQUESTs sent" >&2
  exit 1
fi

# 3. Conforming REPORTs keep health ok; one observation above the
#    bound flips it to degraded and the cli exit code mirrors that.
cli report --handle "${handles[1]}" --latency 1 >/dev/null
health="$(cli health)"
printf '%s' "$health" | grep -q '"status":"ok"'
cli report --handle "${handles[1]}" --latency 900000 >/dev/null
set +e
cli health >"$OUT_DIR/health-degraded.json"
rc=$?
set -e
if [[ "$rc" -ne 1 ]]; then
  echo "FAIL: wormrt-cli health expected exit 1 (degraded), got $rc" >&2
  cat "$OUT_DIR/health-degraded.json" >&2
  exit 1
fi
grep -q '"status":"degraded"' "$OUT_DIR/health-degraded.json"
grep -q 'bound_violations' "$OUT_DIR/health-degraded.json"
echo "health (degraded): exit 1, reason recorded"

# 4. HISTORY has sampled series by now (50ms period).
sleep 0.3
cli history --window-ms 60000 >"$OUT_DIR/history.json"
python3 - "$OUT_DIR/history.json" <<'PY'
import json, sys
d = json.load(open(sys.argv[1]))
series = {s["name"]: s["samples"] for s in d["series"]}
assert d["ok"] and d["interval_ms"] == 50, d
assert series, "no series sampled"
pop = series["population"]
assert pop and pop[-1][1] > 0, pop
print("history: %d series, %d population samples, last=%d"
      % (len(series), len(pop), pop[-1][1]))
PY

# 5. wormrt-top --once again, now showing violations + history.
"$TOP" --socket "$SOCKET" --once >"$OUT_DIR/wormrt-top-degraded.txt"
grep -q 'health: degraded' "$OUT_DIR/wormrt-top-degraded.txt"
grep -q 'bound_violations' "$OUT_DIR/wormrt-top-degraded.txt"

# 6. SIGTERM: audit log must be flushed, parseable, and complete.
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""
python3 - "$AUDIT" "$mutations" <<'PY'
import json, sys
records = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
want = int(sys.argv[2])
assert len(records) == want, (len(records), want)
seqs = [r["seq"] for r in records]
assert seqs == list(range(want)), "audit seq not dense"
kinds = {r["event"] for r in records}
assert "request" in kinds and "remove" in kinds, kinds
admitted = [r for r in records if r["event"] == "request" and r["admitted"]]
assert all("handle" in r and "bound" in r and r.get("durable") for r in admitted)
print("audit: %d records, seq dense, events %s" % (len(records), sorted(kinds)))
PY

# 7. The shutdown dump: the last stderr line is the METRICS reply.
python3 - "$OUT_DIR/daemon.err" "$requests" <<'PY'
import json, sys
lines = [l for l in open(sys.argv[1]) if l.strip()]
reply = json.loads(lines[-1])
assert reply["ok"] and "prometheus" in reply, reply.keys()
counts = [m["value"] for m in reply["metrics"]["metrics"]
          if m["name"] == "wormrt_requests_total"
          and m["labels"].get("verb") == "REQUEST"]
assert counts == [int(sys.argv[2])], (counts, sys.argv[2])
print("shutdown dump: METRICS reply, %d REQUESTs" % counts[0])
PY

echo "PASS: health/top/report/history/audit all answered"
