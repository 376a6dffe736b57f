#!/usr/bin/env bash
# loc.sh — the size ROADMAP.md tracks: lines of non-test Go outside
# benchmark/ (the product), and lines of test Go. Plain `wc -l`, comments
# and blank lines included, so the number is the one anybody can reproduce.
# Informational: prints and exits 0; the CI docs job runs it so every PR's
# log carries the count.
#
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

count() { find . -name '*.go' "$@" -print0 | xargs -0 cat | wc -l; }

echo "non-test Go outside benchmark/: $(count ! -name '*_test.go' ! -path './benchmark/*') lines"
echo "test Go:                        $(count -name '*_test.go') lines"
