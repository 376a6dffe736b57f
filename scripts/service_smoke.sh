#!/usr/bin/env bash
# service_smoke.sh — end-to-end smoke test of `blazes serve`: boot the
# service on a free port, drive one create → mutate → analyze round trip
# over HTTP, check the retired verify route answers a JSON 404 and a wrong
# method a JSON 405 with Allow, then prove
# durability the hard way — kill -9 the journaled server mid-life, restart
# it on the same journal, and assert the session replays intact from one
# untorn segment, put a strategy list on the wire, hold /v1/stats' latency
# counts to the 2xx replies, refuse a spec that declares a stream name
# twice (400), a body with bytes after its JSON value (400) and one past
# the 8 MiB limit (413), refuse the retired
# snapshot-interval flag — and finally send SIGTERM and assert a clean
# (exit 0) shutdown. Replies are compact JSON, so the needles below carry
# no space after a colon. CI runs
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

SPEC='Count:\n  annotation: {from: words, to: counts, label: OW, subscript: [word, batch]}\ntopology:\n  sources:\n    - {name: words, to: Count.words}\n  sinks:\n    - {name: counts, from: Count.counts}\n'

boot -journal "$JOURNAL"
HEALTH="$(fetch GET /healthz)"
expect healthz "$HEALTH" '"ok":true'
[[ "$HEALTH" != *'"recovering"'* ]] || { echo "FAIL: /healthz still reports a recovering state:"; echo "$HEALTH"; exit 1; }
echo "ok: healthz-no-recovering"
expect create "$(fetch POST /v1/sessions "{\"name\":\"wc\",\"spec\":\"$SPEC\"}")" '"session":"s1"'
expect analyze-unsealed "$(fetch POST /v1/sessions/s1/analyze)" '"kind":"Run"'
expect mutate "$(fetch POST /v1/sessions/s1/mutate '{"ops":[{"op":"seal","stream":"words","key":["batch"]}]}')" '"applied":1'
ANALYZE2="$(fetch POST /v1/sessions/s1/analyze '{"synthesize":true}')"
expect analyze-sealed "$ANALYZE2" '"kind":"Async"'
expect analyze-delta "$ANALYZE2" '"delta"'
# Verification runs in `blazes verify`, not in the service: the route is
# gone. A path no route is mounted for answers a JSON 404, and a method the
# path is not mounted under a JSON 405 with Allow, like every other refusal.
RETIRED="$(curl -sS -w ' HTTP %{http_code} %{content_type}' -X POST -H 'Content-Type: application/json' -d '{"workloads":["synthetic-set"],"seeds":8}' "$BASE/v1/verify")"
expect verify-retired-404 "$RETIRED" 'HTTP 404 application/json'
expect unmounted-path-json "$RETIRED" '{"error":"no route for POST /v1/verify"}'
WRONG_METHOD="$(curl -sS -i -X GET "$BASE/v1/sessions/s1/mutate" | tr -d '\r')"
expect wrong-method-405 "$WRONG_METHOD" 'HTTP/1.1 405'
expect wrong-method-allow "$WRONG_METHOD" 'Allow: POST'
expect wrong-method-json "$WRONG_METHOD" 'Content-Type: application/json'
expect wrong-method-error "$WRONG_METHOD" '{"error":"method GET not allowed on /v1/sessions/s1/mutate (allow: POST)"}'
expect stats "$(fetch GET /v1/stats)" '"durable":true'

# Crash recovery: kill -9 (no drain, no journal close), restart on the
# same journal, and require the acknowledged session state back. The
# server announces its address only after the boot replay, so the first
# request after the announcement already sees the recovered session.
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
echo "killed -9; restarting on the journal"
boot -journal "$JOURNAL"
RECOVERED="$(fetch GET /v1/sessions/s1)"
expect recovered-session "$RECOVERED" '"recovered":true'
expect recovered-version "$RECOVERED" '"version":1'
RSTATS="$(fetch GET /v1/stats | tr -d ' \n')"
expect recovered-stats "$RSTATS" '"recovered_sessions":1'
# What the boot replay found: a clean tail (a SIGKILL after the fsync
# tears nothing), the records since the last snapshot, and one segment.
expect recovery-untorn "$RSTATS" '"torn":false'
expect journal-one-segment "$RSTATS" '"segments":1,'
[[ "$RSTATS" =~ \"records\":[1-9] ]] || { echo "FAIL: recovery replayed no records:"; echo "$RSTATS"; exit 1; }
echo "ok: recovery-records"
# The recovered session must analyze like the original sealed session did.
expect recovered-analyze "$(fetch POST /v1/sessions/s1/analyze)" '"kind":"Async"'

# A strategy preference is one comma-separated list on the wire: sealing
# where seals allow, else M1 sequencing. The retired "sequencing" switch
# is an unknown field, refused by name.
expect create-list "$(fetch POST /v1/sessions "{\"name\":\"wc-m1\",\"spec\":\"$SPEC\",\"strategy\":\"sealing,sequencing\"}")" '"session":"s2"'
expect analyze-list "$(fetch POST /v1/sessions/s2/analyze '{"synthesize":true}')" '"mechanism":"sequencing"'
RETIRED="$(curl -sS -w ' HTTP %{http_code}' -X POST -H 'Content-Type: application/json' -d "{\"spec\":\"$SPEC\",\"sequencing\":true}" "$BASE/v1/sessions")"
expect retired-sequencing "$RETIRED" 'unknown field \"sequencing\"'
expect retired-sequencing-400 "$RETIRED" 'HTTP 400'

# A stream name names one stream: a spec that declares one twice is a 400
# whose JSON body names the stream.
DUPSPEC='Count:\n  annotation: {from: words, to: counts, label: CR}\ntopology:\n  sources:\n    - {name: words, to: Count.words}\n    - {name: words, to: Count.words}\n  sinks:\n    - {name: counts, from: Count.counts}\n'
DUPLICATE="$(curl -sS -w ' HTTP %{http_code} %{content_type}' -X POST -H 'Content-Type: application/json' -d "{\"name\":\"wc-dup\",\"spec\":\"$DUPSPEC\"}" "$BASE/v1/sessions")"
expect duplicate-stream-400 "$DUPLICATE" 'HTTP 400 application/json'
expect duplicate-stream-named "$DUPLICATE" '{"error":"dataflow: duplicate stream name \"words\""}'

# A request body is exactly one JSON value of at most 8 MiB: a second
# value after a valid create is a 400 that names its first byte and opens
# no session, and a 9 MiB create is a 413 that names the limit.
TRAILING="$(curl -sS -w ' HTTP %{http_code}' -X POST -H 'Content-Type: application/json' -d "{\"name\":\"wc-junk\",\"spec\":\"$SPEC\"} {\"junk\":1} trailing" "$BASE/v1/sessions")"
expect trailing-bytes-400 "$TRAILING" 'HTTP 400'
expect trailing-bytes-named "$TRAILING" "'{' at offset"
[[ "$(curl -sS -o /dev/null -w '%{http_code}' "$BASE/v1/sessions/s3")" == 404 ]] || { echo "FAIL: a refused create opened session s3"; exit 1; }
echo "ok: trailing-bytes-nothing-applied"
BIG="$(dirname "$BIN")/big.json"
{ printf '{"spec":"'; head -c $((9 << 20)) /dev/zero | tr '\0' a; printf '"}'; } >"$BIG"
OVERSIZED="$(curl -sS -w ' HTTP %{http_code}' -X POST -H 'Content-Type: application/json' --data-binary "@$BIG" "$BASE/v1/sessions")"
expect oversized-413 "$OVERSIZED" 'HTTP 413'
expect oversized-limit "$OVERSIZED" 'the limit is 8388608 bytes'

# /v1/stats times the 2xx replies only: since the restart one create was
# served, and the 400 above is not a sample. Only the admitted session
# endpoints are timed; verify is not one of them.
STATS="$(fetch GET /v1/stats | tr -d ' \n')"
expect stats-create-count "$STATS" '"create":{"count":1,'
LATENCY="${STATS#*\"latency\":}"
[[ "$LATENCY" != "$STATS" && "$LATENCY" != *'"verify":'* ]] || { echo "FAIL: no latency section, or one with a verify key:"; echo "$STATS"; exit 1; }
echo "ok: stats-no-verify-latency"

# The snapshot interval is fixed: the retired flag is a usage error (exit
# 2) that names it.
RETIRED_EXIT=0
RETIRED="$("$BIN" serve -snapshot-every 8 2>&1)" || RETIRED_EXIT=$?
[[ "$RETIRED_EXIT" == 2 ]] || { echo "FAIL: the retired snapshot-interval flag exited $RETIRED_EXIT, want 2"; exit 1; }
expect retired-snapshot-every "$RETIRED" 'flag provided but not defined: -snapshot-every'

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
