#!/usr/bin/env bash
# sweep_smoke.sh — end-to-end smoke test of fleet-scale verification:
# boot `blazes serve` as the sweep coordinator, attach two
# `blazes sweep-worker` processes, and drive `blazes verify -coordinator`
# with a workload whose stripped-coordination cells are known to diverge
# (synthetic-chains). The sweep must complete across the workers, the
# injected anomaly must shrink to a 1-minimal replayable trace artifact,
# and `blazes verify -replay` must reproduce it with exit 0. CI runs this
# as the (non-blocking) sweep-smoke job; it is also the quickest local
# check after touching the sweep coordinator, the shrinker, or the
# worker loop.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN="$(mktemp -d)/blazes"
OUT="$(mktemp)"
W1OUT="$(mktemp)"
W2OUT="$(mktemp)"
TRACES="$(mktemp -d)"
SERVER_PID=""
W1_PID=""
W2_PID=""
cleanup() {
	for pid in "$W1_PID" "$W2_PID" "$SERVER_PID"; do
		[[ -n "$pid" ]] && kill -9 "$pid" 2>/dev/null || true
	done
	rm -rf "$(dirname "$BIN")" "$OUT" "$OUT".* "$W1OUT" "$W2OUT" "$TRACES"
}
trap cleanup EXIT

go build -o "$BIN" ./cmd/blazes

: >"$OUT"
"$BIN" serve -addr 127.0.0.1:0 >"$OUT" 2>&1 &
SERVER_PID=$!
BASE=""
for _ in $(seq 1 100); do
	BASE="$(sed -n 's/.*serving on \(http:\/\/[^ ]*\).*/\1/p' "$OUT" | head -1)"
	[[ -n "$BASE" ]] && break
	kill -0 "$SERVER_PID" 2>/dev/null || { echo "server died during startup:"; cat "$OUT"; exit 1; }
	sleep 0.1
done
[[ -n "$BASE" ]] || { echo "server never announced its address:"; cat "$OUT"; exit 1; }
echo "coordinator at $BASE"

GOMAXPROCS=1 "$BIN" sweep-worker -coordinator "$BASE" -poll 50ms -max 1 -name smoke-w1 >"$W1OUT" 2>&1 &
W1_PID=$!
GOMAXPROCS=1 "$BIN" sweep-worker -coordinator "$BASE" -poll 50ms -max 1 -name smoke-w2 >"$W2OUT" 2>&1 &
W2_PID=$!

# Sweep 1 — the anomaly pipeline: synthetic-chains strips to a known
# divergence, so shrink must produce replayable traces, and the merged
# report must be byte-identical to a local single-process run.
"$BIN" verify -coordinator "$BASE" -workload synthetic-chains -seeds 24 \
	-shrink "$TRACES" -json >"$OUT.dist" || {
	echo "FAIL: distributed verify did not hold"
	cat "$OUT" "$W1OUT" "$W2OUT"
	exit 1
}
"$BIN" verify -workload synthetic-chains -seeds 24 -json >"$OUT.local"
cmp -s "$OUT.dist" "$OUT.local" || {
	echo "FAIL: distributed report differs from local run:"
	diff "$OUT.local" "$OUT.dist" || true
	exit 1
}
echo "ok: distributed report byte-identical to local run"

# Sweep 2 — fleet sharing: a larger generated-topology sweep in small
# batches keeps both workers busy long enough that each must carry load.
"$BIN" verify -coordinator "$BASE" -workload generated-96c-s3 -seeds 16 \
	-batch 2 -json >"$OUT.dist2" || {
	echo "FAIL: distributed generated sweep did not hold"
	cat "$OUT" "$W1OUT" "$W2OUT"
	exit 1
}
"$BIN" verify -workload generated-96c-s3 -seeds 16 -json >"$OUT.local2"
cmp -s "$OUT.dist2" "$OUT.local2" || {
	echo "FAIL: distributed generated report differs from local run:"
	diff "$OUT.local2" "$OUT.dist2" || true
	exit 1
}
echo "ok: distributed generated report byte-identical to local run"

# Both workers must actually have carried batches (the sweep was shared,
# not served by one process).
for wout in "$W1OUT" "$W2OUT"; do
	grep -q "reported" "$wout" || {
		echo "FAIL: a worker reported no batches:"
		cat "$W1OUT" "$W2OUT"
		exit 1
	}
done
echo "ok: both workers reported batches"

TRACE_COUNT="$(ls "$TRACES"/*.json 2>/dev/null | wc -l)"
[[ "$TRACE_COUNT" -gt 0 ]] || { echo "FAIL: no shrunk trace artifacts"; exit 1; }
echo "ok: $TRACE_COUNT shrunk trace artifact(s)"

for trace in "$TRACES"/*.json; do
	"$BIN" verify -replay "$trace" >/dev/null || {
		echo "FAIL: trace did not replay: $trace"
		cat "$trace"
		exit 1
	}
	echo "ok: replayed $(basename "$trace")"
done

# The coordinator's stats must reflect the sweep.
STATS="$(curl -fsS "$BASE/v1/stats")"
[[ "$STATS" == *'"traces_shrunk"'* ]] || { echo "FAIL: stats missing sweep section: $STATS"; exit 1; }
[[ "$STATS" != *'"completed": 0,'* ]] || true # informational only
echo "ok: coordinator stats report sweep activity"

kill -TERM "$W1_PID" "$W2_PID" 2>/dev/null || true
wait "$W1_PID" 2>/dev/null || true
wait "$W2_PID" 2>/dev/null || true
W1_PID=""
W2_PID=""
kill -TERM "$SERVER_PID"
EXIT=0
wait "$SERVER_PID" || EXIT=$?
SERVER_PID=""
[[ "$EXIT" == 0 ]] || { echo "FAIL: server exited $EXIT after SIGTERM:"; cat "$OUT"; exit 1; }
echo "sweep smoke test passed"
