#!/usr/bin/env bash
# check_links.sh — verify that every relative markdown link in the repo's
# documentation points at a file that actually exists. Runs in the CI docs
# job so refactors can't silently orphan README/DESIGN/EXPERIMENTS
# cross-references. External (http/https/mailto) links and pure #anchors are
# skipped: the check must work offline and stay dependency-free.
#
# README.md and DESIGN.md describe the tree as it is, so there a back-ticked
# repo path must exist too: `scripts/x.sh`, an upper-case root document
# (`X.md`, `X.json`; a `*` is a glob that must match something),
# `.github/workflows/x.yml`, `cmd/x`. The other documents are history and
# may name what is gone.
#
# Usage: scripts/check_links.sh [file.md ...]   # default: the doc set
set -euo pipefail
cd "$(dirname "$0")/.."

FILES=("$@")
if [[ ${#FILES[@]} -eq 0 ]]; then
	FILES=(README.md DESIGN.md EXPERIMENTS.md ROADMAP.md PAPER.md PAPERS.md)
fi

bad=0
for f in "${FILES[@]}"; do
	if [[ ! -f "$f" ]]; then
		echo "check_links: missing doc file: $f" >&2
		bad=1
		continue
	fi
	# Extract inline markdown link targets: [text](target).
	while IFS= read -r target; do
		case "$target" in
		http://* | https://* | mailto:* | "#"*) continue ;;
		esac
		path="${target%%#*}"   # drop any #anchor
		path="${path%% *}"     # drop any '"title"' suffix
		[[ -z "$path" ]] && continue
		if [[ ! -e "$path" ]]; then
			echo "check_links: $f: broken link -> $target" >&2
			bad=1
		fi
	done < <(grep -o '\[[^]]*\]([^)]*)' "$f" | sed 's/.*](\([^)]*\))/\1/')

	[[ "$f" == README.md || "$f" == DESIGN.md ]] || continue
	# The first word after each backtick, when it has the shape of one of
	# the paths above.
	while IFS= read -r path; do
		if ! compgen -G "$path" >/dev/null; then
			echo "check_links: $f: names a path that does not exist -> $path" >&2
			bad=1
		fi
	done < <(grep -o '`[^` ]*' "$f" | tr -d '`' |
		grep -E '^(scripts/[^/]+\.sh|[A-Z][A-Z0-9_*]*\.(json|md)|\.github/workflows/[^/]+\.yml|cmd/.+)$' | sort -u)
done

if [[ "$bad" -ne 0 ]]; then
	exit 1
fi
echo "check_links: all relative links and named paths resolve"
