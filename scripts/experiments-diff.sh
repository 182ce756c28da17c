#!/usr/bin/env bash
# Byte-for-byte comparison of `experiments -all` between a parent commit and
# this checkout — the "results unchanged" oracle for refactors of the offline
# studies:
#
#   scripts/experiments-diff.sh <parent-ref>
#
# Extracts <parent-ref> into a temporary directory (git archive: nothing is
# registered in .git, nothing is left behind), builds cmd/experiments on both
# sides, and runs `-all` on each at default flags and at
# `-scale 2 -step 30m -seed 2 -csv-dir <dir>`. Diffs the stdout of every run
# and the CSV directories, and exits non-zero on any byte difference.
set -euo pipefail

if [ $# -ne 1 ]; then
	echo "usage: $0 <parent-ref>" >&2
	exit 2
fi
ref=$1
root=$(git rev-parse --show-toplevel)
cd "$root"

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/parent"
git archive "$ref" | tar -x -C "$work/parent"
(cd "$work/parent" && go build -o "$work/experiments.parent" ./cmd/experiments)
go build -o "$work/experiments.change" ./cmd/experiments

status=0
for side in parent change; do
	echo "experiments-diff: running $side" >&2
	"$work/experiments.$side" -all >"$work/$side.default.out"
	"$work/experiments.$side" -all -scale 2 -step 30m -seed 2 -csv-dir "$work/$side.csv" \
		>"$work/$side.small.out"
done
for run in default small; do
	if diff "$work/parent.$run.out" "$work/change.$run.out"; then
		echo "experiments-diff: $run stdout identical"
	else
		echo "experiments-diff: $run stdout differs" >&2
		status=1
	fi
done
if diff -r "$work/parent.csv" "$work/change.csv"; then
	echo "experiments-diff: CSVs identical"
else
	echo "experiments-diff: CSVs differ" >&2
	status=1
fi
exit $status
