#!/usr/bin/env bash
# service_smoke.sh — end-to-end smoke test of `blazes serve`: boot the
# service on a free port, drive one create → mutate → analyze → verify
# round trip over HTTP, then prove durability the hard way — kill -9 the
# journaled server mid-life, restart it on the same journal, and assert
# the session replays intact, put a strategy list on the wire, hold
# /v1/stats' latency counts to the 2xx replies — and finally send SIGTERM
# and assert a clean (exit 0) shutdown. CI runs
# this as the service job; it is also
# the quickest local sanity check after touching blazes/service,
# blazes/internal/journal or cmd/blazes.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN="$(mktemp -d)/blazes"
OUT="$(mktemp)"
JOURNAL="$(mktemp -d)"
SERVER_PID=""
cleanup() {
	[[ -n "$SERVER_PID" ]] && kill -9 "$SERVER_PID" 2>/dev/null || true
	rm -rf "$(dirname "$BIN")" "$OUT" "$JOURNAL"
}
trap cleanup EXIT

go build -o "$BIN" ./cmd/blazes

boot() { # extra serve flags...
	: >"$OUT"
	"$BIN" serve -addr 127.0.0.1:0 -max-sessions 8 "$@" >"$OUT" 2>&1 &
	SERVER_PID=$!
	# Wait for the announced listen address.
	BASE=""
	for _ in $(seq 1 100); do
		BASE="$(sed -n 's/.*serving on \(http:\/\/[^ ]*\).*/\1/p' "$OUT" | head -1)"
		[[ -n "$BASE" ]] && break
		kill -0 "$SERVER_PID" 2>/dev/null || { echo "server died during startup:"; cat "$OUT"; exit 1; }
		sleep 0.1
	done
	[[ -n "$BASE" ]] || { echo "server never announced its address:"; cat "$OUT"; exit 1; }
	echo "serving at $BASE"
}

fetch() { # method path [body]
	local method=$1 path=$2 body=${3:-}
	if [[ -n "$body" ]]; then
		curl -fsS -X "$method" -H 'Content-Type: application/json' -d "$body" "$BASE$path"
	else
		curl -fsS -X "$method" "$BASE$path"
	fi
}

expect() { # label haystack needle
	local label=$1 hay=$2 needle=$3
	if [[ "$hay" != *"$needle"* ]]; then
		echo "FAIL: $label response missing '$needle':"
		echo "$hay"
		exit 1
	fi
	echo "ok: $label"
}

wait_ready() {
	# Writes shed 503 while the boot replay runs — wait for the server to
	# leave read-only mode before driving traffic.
	for _ in $(seq 1 100); do
		[[ "$(fetch GET /v1/stats || true)" == *'"recovering": false'* ]] && return 0
		sleep 0.1
	done
	echo "server never finished its boot replay:"
	cat "$OUT"
	exit 1
}

SPEC='Count:\n  annotation: {from: words, to: counts, label: OW, subscript: [word, batch]}\ntopology:\n  sources:\n    - {name: words, to: Count.words}\n  sinks:\n    - {name: counts, from: Count.counts}\n'

boot -journal "$JOURNAL"
wait_ready
expect healthz "$(fetch GET /healthz)" '"ok": true'
expect create "$(fetch POST /v1/sessions "{\"name\":\"wc\",\"spec\":\"$SPEC\"}")" '"session": "s1"'
expect analyze-unsealed "$(fetch POST /v1/sessions/s1/analyze)" '"kind": "Run"'
expect mutate "$(fetch POST /v1/sessions/s1/mutate '{"ops":[{"op":"seal","stream":"words","key":["batch"]}]}')" '"applied": 1'
ANALYZE2="$(fetch POST /v1/sessions/s1/analyze '{"synthesize":true}')"
expect analyze-sealed "$ANALYZE2" '"kind": "Async"'
expect analyze-delta "$ANALYZE2" '"delta"'
expect verify "$(fetch POST /v1/verify '{"workloads":["synthetic-set"],"seeds":8}')" '"holds": true'
expect stats "$(fetch GET /v1/stats)" '"durable": true'

# Crash recovery: kill -9 (no drain, no journal close), restart on the
# same journal, and require the acknowledged session state back.
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
echo "killed -9; restarting on the journal"
boot -journal "$JOURNAL"
wait_ready
RECOVERED="$(fetch GET /v1/sessions/s1)"
expect recovered-session "$RECOVERED" '"recovered": true'
expect recovered-version "$RECOVERED" '"version": 1'
expect recovered-stats "$(fetch GET /v1/stats)" '"recovered_sessions": 1'
# The recovered session must analyze like the original sealed session did.
expect recovered-analyze "$(fetch POST /v1/sessions/s1/analyze)" '"kind": "Async"'

# A strategy preference is one comma-separated list on the wire: sealing
# where seals allow, else M1 sequencing. The retired "sequencing" switch
# is an unknown field, refused by name.
expect create-list "$(fetch POST /v1/sessions "{\"name\":\"wc-m1\",\"spec\":\"$SPEC\",\"strategy\":\"sealing,sequencing\"}")" '"session": "s2"'
expect analyze-list "$(fetch POST /v1/sessions/s2/analyze '{"synthesize":true}')" '"mechanism": "sequencing"'
expect verify-list "$(fetch POST /v1/verify '{"workloads":["synthetic-chains"],"seeds":8,"strategy":"sealing,sequencing"}')" '"holds": true'
RETIRED="$(curl -sS -w ' HTTP %{http_code}' -X POST -H 'Content-Type: application/json' -d '{"workloads":["synthetic-set"],"sequencing":true}' "$BASE/v1/verify")"
expect retired-sequencing "$RETIRED" 'unknown field \"sequencing\"'
expect retired-sequencing-400 "$RETIRED" 'HTTP 400'
# A sweep's worker count is the server's GOMAXPROCS; the retired
# "parallelism" field is refused by name too.
RETIRED="$(curl -sS -w ' HTTP %{http_code}' -X POST -H 'Content-Type: application/json' -d '{"parallelism":2}' "$BASE/v1/verify")"
expect retired-parallelism "$RETIRED" 'unknown field \"parallelism\"'
expect retired-parallelism-400 "$RETIRED" 'HTTP 400'

# /v1/stats times the 2xx replies only: since the restart one create and
# one verify were served, and the 400s above are not samples.
STATS="$(fetch GET /v1/stats | tr -d ' \n')"
expect stats-create-count "$STATS" '"create":{"count":1,'
expect stats-verify-count "$STATS" '"verify":{"count":1,'

# Graceful shutdown: SIGTERM must yield exit code 0.
kill -TERM "$SERVER_PID"
EXIT=0
wait "$SERVER_PID" || EXIT=$?
SERVER_PID=""
if [[ "$EXIT" != 0 ]]; then
	echo "FAIL: server exited $EXIT after SIGTERM:"
	cat "$OUT"
	exit 1
fi
grep -q "shut down cleanly" "$OUT" || { echo "FAIL: no clean-shutdown message:"; cat "$OUT"; exit 1; }
echo "ok: clean shutdown"
echo "service smoke test passed"
