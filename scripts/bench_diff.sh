#!/usr/bin/env bash
# bench_diff.sh — smoke-run every benchmark once and diff ns/op against the
# recorded baseline (BENCH_8.json).
#
# Usage:
#   scripts/bench_diff.sh                     # threshold 3.0× vs BENCH_8.json
#   BASELINE=BENCH_8.json THRESHOLD=2.5 scripts/bench_diff.sh
#
#   # JSON mode: skip `go test -bench` and diff the Benchmark* entries of
#   # one report against another (the load-smoke job compares a fresh
#   # cmd/loadgen run to the committed BENCH_7.json this way):
#   CURRENT_JSON=/tmp/load.json BASELINE=BENCH_7.json scripts/bench_diff.sh
#
# Exits 1 when any benchmark is more than THRESHOLD× slower than its
# baseline mean. Single-iteration numbers are noisy and CI hardware differs
# from the baseline machine, so callers (a hand run and the load-smoke CI
# jobs) treat the result as NON-BLOCKING: the point is to surface silent
# order-of-magnitude rots, not to gate merges on jitter.
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE="${BASELINE:-BENCH_8.json}"
THRESHOLD="${THRESHOLD:-3.0}"
CURRENT_JSON="${CURRENT_JSON:-}"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

if [[ -z "$CURRENT_JSON" ]]; then
	go test -bench . -benchtime 1x -benchmem -run '^$' ./... | tee "$RAW"
fi

awk -v baseline="$BASELINE" -v current="$CURRENT_JSON" -v threshold="$THRESHOLD" '
# parse_json reads "Benchmark...": {"ns_per_op": N} entries into arr. The
# name and value may share a line (compact BENCH_N.json) or sit on
# adjacent lines (indented cmd/loadgen reports) — pending carries the name
# across lines until its ns_per_op shows up.
function parse_json(file, arr,    line, name, val, pending) {
	pending = ""
	while ((getline line < file) > 0) {
		if (match(line, /"Benchmark[^"]*"/)) {
			name = substr(line, RSTART + 1, RLENGTH - 2)
			pending = name
		}
		if (pending != "" && match(line, /"ns_per_op": [0-9.eE+-]+/)) {
			val = substr(line, RSTART + 13, RLENGTH - 13)
			arr[pending] = val + 0
			pending = ""
		}
	}
	close(file)
}
BEGIN {
	parse_json(baseline, base)
	if (current != "") parse_json(current, now)
}
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	for (i = 3; i < NF; i++) {
		if ($(i + 1) == "ns/op") {
			now[name] = $i + 0
		}
	}
}
END {
	printf "\n%-40s %14s %14s %8s\n", "benchmark", "baseline ns/op", "smoke ns/op", "ratio"
	worst = 0
	for (name in now) {
		if (!(name in base)) {
			printf "%-40s %14s %14.0f %8s  (new: no baseline)\n", name, "-", now[name], "-"
			continue
		}
		ratio = base[name] > 0 ? now[name] / base[name] : 0
		flag = ""
		if (ratio > threshold) { flag = "  <-- REGRESSION?"; bad++ }
		printf "%-40s %14.0f %14.0f %7.2fx%s\n", name, base[name], now[name], ratio, flag
		if (ratio > worst) worst = ratio
	}
	printf "\nthreshold %.2fx, worst ratio %.2fx\n", threshold, worst
	if (bad > 0) {
		printf "%d benchmark(s) exceeded the threshold (non-blocking; see scripts/bench_diff.sh)\n", bad
		exit 1
	}
}' "$RAW"
