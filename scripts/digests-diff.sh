#!/usr/bin/env bash
# Comparison of the benchmark's decisions between a parent commit and this
# checkout — the "no decision changed" oracle for refactors of the runtime:
#
#   scripts/digests-diff.sh <parent-ref> [seeds=10]
#
# Extracts <parent-ref> into a temporary directory (git archive: nothing is
# registered in .git, nothing is left behind), builds bench/cmd/smoothbench
# on both sides, and runs every workload at --seconds 0 --trace 0 (set-up
# and the checkpoints, no timed phase) on seeds 1..seeds. Lists each run's
# digest, placed_pct and sum_leaf_peaks_w at full precision, diffs the two
# lists, and exits non-zero on any difference. Changes nothing under bench/.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
	echo "usage: $0 <parent-ref> [seeds=10]" >&2
	exit 2
fi
ref=$1 seeds=${2:-10}
root=$(git rev-parse --show-toplevel)
cd "$root"

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/parent"
git archive "$ref" | tar -x -C "$work/parent"
(cd "$work/parent" && go build -o "$work/smoothbench.parent" ./bench/cmd/smoothbench)
go build -o "$work/smoothbench.change" ./bench/cmd/smoothbench

# decisions prints one line per run of a result file (smoothbench -out,
# indented JSON whose metrics are in key order): workload, seed, digest,
# placed_pct and sum_leaf_peaks_w.
decisions() {
	awk '
		{ gsub(/[",]/, "") }
		$1 == "workload:" { w = $2 }
		$1 == "seed:" { s = $2 }
		$1 == "digest:" { d = $2 }
		$1 == "placed_pct:" || $1 == "sum_leaf_peaks_w:" { m = $1; next }
		m != "" && $1 == "value:" {
			v[m] = $2
			if (m == "sum_leaf_peaks_w:")
				printf "%s seed %s digest %s placed_pct %s sum_leaf_peaks_w %s\n", w, s, d, v["placed_pct:"], $2
			m = ""
		}' "$1"
}

for side in parent change; do
	dir=$root
	if [ "$side" = parent ]; then
		dir=$work/parent
	fi
	echo "digests-diff: running $side on seeds 1..$seeds" >&2
	(cd "$dir" && "$work/smoothbench.$side" --workload all --seed 1 --repeat "$seeds" \
		--seconds 0 --trace 0 --out "$work/$side.json" >/dev/null)
	decisions "$work/$side.json" >"$work/$side.txt"
	if [ ! -s "$work/$side.txt" ]; then
		echo "digests-diff: $side listed no runs" >&2
		exit 1
	fi
done
if diff "$work/parent.txt" "$work/change.txt"; then
	echo "digests-diff: $(wc -l <"$work/change.txt") (workload, seed) runs identical"
else
	echo "digests-diff: decisions differ" >&2
	exit 1
fi
