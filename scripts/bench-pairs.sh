#!/usr/bin/env bash
# Paired parent/change runs of the repo's benchmark — the procedure every
# timing claim must come from (choosing-metrics §8; ROADMAP item 3):
#
#   scripts/bench-pairs.sh <parent-ref> <workload> <metric> [pairs=10]
#
# Extracts <parent-ref> into a temporary directory (git archive: nothing is
# registered in .git, nothing is left behind), then for pair i runs
#   bash bench/run.sh --workload W --seed i --seconds 20 --trace 0
# once in the parent copy and once in this checkout, alternating which side
# goes first. Prints every pair, each side's median and quartiles, the win
# count (ties count for neither side) and whether the §8 rule holds: the
# change wins at least nine tenths of the pairs and the medians differ by
# more than the distance between the parent's quartiles. It also prints the
# parent's median over the first and over the second half of the pairs, and
# warns that host load drifted when the two differ by more than the parent's
# quartile spread: drift widens that spread and can hide a real gain. The
# direction of "better" is read from BENCHMARK.json. Changes nothing under
# bench/.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
	echo "usage: $0 <parent-ref> <workload> <metric> [pairs=10]" >&2
	exit 2
fi
ref=$1 workload=$2 metric=$3 pairs=${4:-10}
root=$(git rev-parse --show-toplevel)
cd "$root"

better=$(awk -v m="\"$metric\"" '
	/"name":/ { hit = index($0, m) > 0 }
	hit && /"better":/ { gsub(/[",]/, ""); print $2; exit }' BENCHMARK.json)
if [ -z "$better" ]; then
	echo "bench-pairs: metric $metric is not declared in BENCHMARK.json" >&2
	exit 2
fi

parent=$(mktemp -d)
trap 'rm -rf "$parent"' EXIT
git archive "$ref" | tar -x -C "$parent"

# measure <dir> <seed> prints the metric's value from the run's result line.
measure() {
	local out
	out=$(cd "$1" && bash bench/run.sh --workload "$workload" --seed "$2" --seconds 20 --trace 0)
	printf '%s\n' "$out" | grep -o "\"$metric\":{\"value\":[^,}]*" | tail -n 1 | sed 's/.*://'
}

old=() new=()
printf '%-5s %-7s %14s %14s\n' pair first parent change
for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		first=parent a=$(measure "$parent" "$i") b=$(measure "$root" "$i")
	else
		first=change b=$(measure "$root" "$i") a=$(measure "$parent" "$i")
	fi
	if [ -z "$a" ] || [ -z "$b" ]; then
		echo "bench-pairs: pair $i printed no $metric" >&2
		exit 1
	fi
	old+=("$a") new+=("$b")
	printf '%-5s %-7s %14s %14s\n' "$i" "$first" "$a" "$b"
done

printf '%s\n' "${old[@]}" | sort -g >"$parent/.old"
printf '%s\n' "${new[@]}" | sort -g >"$parent/.new"
paste -d' ' <(printf '%s\n' "${old[@]}") <(printf '%s\n' "${new[@]}") >"$parent/.pairs"

awk -v better="$better" -v metric="$metric" -v workload="$workload" '
	# q returns the p-quantile of the sorted values v[1..n], interpolating
	# between closest ranks.
	function q(v, n, p,    r, lo, f) {
		r = 1 + p * (n - 1); lo = int(r); f = r - lo
		return lo >= n ? v[n] : v[lo] * (1 - f) + v[lo + 1] * f
	}
	# halfmedian returns the median of the parent values seq[lo..hi], in run
	# order, after sorting a copy of them.
	function halfmedian(lo, hi,    v, n, i, j, x) {
		n = 0
		for (i = lo; i <= hi; i++) {
			x = seq[i]
			for (j = ++n; j > 1 && v[j - 1] > x; j--) v[j] = v[j - 1]
			v[j] = x
		}
		return q(v, n, .5)
	}
	FILENAME ~ /\.old$/ { o[++no] = $1; next }
	FILENAME ~ /\.new$/ { c[++nc] = $1; next }
	{
		seq[++np] = $1
		if ($1 == $2) ties++
		else if ((better == "lower") == ($2 < $1)) wins++
		else losses++
	}
	END {
		printf "\n%s on %s (%s is better), %d pairs\n", metric, workload, better, no
		printf "  parent  median %g  quartiles %g .. %g\n", q(o, no, .5), q(o, no, .25), q(o, no, .75)
		printf "  change  median %g  quartiles %g .. %g\n", q(c, nc, .5), q(c, nc, .25), q(c, nc, .75)
		printf "  change wins %d, loses %d, ties %d\n", wins, losses, ties
		diff = q(c, nc, .5) - q(o, no, .5); if (diff < 0) diff = -diff
		gain = (better == "lower") == (q(c, nc, .5) < q(o, no, .5))
		iqr = q(o, no, .75) - q(o, no, .25)
		if (gain && wins >= 0.9 * no && diff > iqr)
			print "  gain holds: wins >= 9/10 of the pairs and the medians differ by more than the parent IQR (" iqr ")"
		else
			print "  no gain by the pairs rule (parent IQR " iqr ")"
		# With fewer than four pairs each half is a run or two, whose
		# medians differ by about the whole spread: no drift to read.
		if (np >= 4) {
			h = int(np / 2)
			m1 = halfmedian(1, h); m2 = halfmedian(h + 1, np)
			printf "  parent  median %g over pairs 1..%d, %g over pairs %d..%d\n", m1, h, m2, h + 1, np
			drift = m2 - m1; if (drift < 0) drift = -drift
			if (drift > iqr)
				print "  warning: host load drifted: the parent halves differ by " drift ", more than its IQR (" iqr "); rerun on a steadier host before reading the verdict"
		}
	}' "$parent/.old" "$parent/.new" "$parent/.pairs"
