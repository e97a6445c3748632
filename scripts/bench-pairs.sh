#!/bin/sh
# bench-pairs.sh — the pairing rule of bench/README.md, run for you.
#
#   scripts/bench-pairs.sh BASE_REF [N] [WORKLOAD...]
#
# Unpacks BASE_REF (the parent) with git archive into a directory under
# .bench_build/ (a plain copy: no worktree support needed, nothing left in
# .git), then runs `go run ./bench -workload W -trace 0` on the parent and
# on the working tree (the change) N times each (default 10), alternating
# which side goes first: odd pairs parent first, even pairs change first. For
# each workload (default scan_flood) it prints every pair's wire_pps, the
# wins and ties, both sides' medians and quartiles, and the verdict: a gain
# is claimed only if the change wins at least nine tenths of all pairs run
# (ties count for neither) and the medians differ by more than the parent's
# own inter-quartile spread. Exit status 0 only if every workload meets it.
# Under the verdict come both sides' medians and quartiles of the other
# end-to-end metrics (cpu_ns_per_frame, peak_rss_mib, setup_s) over the same
# runs, which a claim has to report as "must not move"; they are printed,
# not judged.
#
# BENCH_FLAGS passes extra flags to both sides alike, e.g.
# BENCH_FLAGS='-seed 7' for the seed the change was not written against.
# The script only calls the harness; it edits nothing under bench/.
set -eu

[ $# -ge 1 ] || { sed -n '2,24s/^# \{0,1\}//p' "$0" >&2; exit 2; }
base=$1
pairs=${2:-10}
[ $# -ge 2 ] && shift 2 || shift 1
[ $# -ge 1 ] || set -- scan_flood

root=$(git rev-parse --show-toplevel)
tree=$root/.bench_build/pairs-base
out=$root/.bench_build/pairs
mkdir -p "$out"

rm -rf "$tree"
mkdir -p "$tree"
trap 'rm -rf "$tree"' EXIT
git -C "$root" archive "$base" | tar -x -C "$tree"
echo "parent: $(git -C "$root" log -1 --format='%h %s' "$base")"
echo "change: working tree at $(git -C "$root" log -1 --format=%h)$(git -C "$root" diff --quiet HEAD || echo ' + uncommitted edits')"

# run DIR SIDE WORKLOAD PAIR prints the run's wire_pps, or fails the script
# if the harness did, or if it judged the run incorrect.
run() {
	# shellcheck disable=SC2086 # BENCH_FLAGS is a flag list
	line=$(cd "$1" && go run ./bench -workload "$3" -trace 0 ${BENCH_FLAGS:-} -o "$out/$3.$2.$4.json" | grep '^{"correct"') ||
		{ echo "bench failed on the $2 side ($3, pair $4)" >&2; exit 1; }
	case $line in
	'{"correct":true,'*'"failed":0,'*) ;;
	*) echo "$2 side incorrect ($3, pair $4): $line" >&2; exit 1 ;;
	esac
	echo "$line" | sed 's/.*"wire_pps":{"value":\([0-9.e+]*\).*/\1/'
}

# quantile of the sorted values v[1..n], linear between ranks
quantile='function q(v, n, f,    h, lo) { h = (n - 1) * f + 1; lo = int(h); return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo]) }'

# metric FILE NAME prints the value a result file reports for an end-to-end
# metric: the "value" line under its name.
metric() {
	awk -v name="\"$2\": {" 'index($0, name) { found = 1; next } found && /"value":/ { gsub(/[^0-9.e+-]/, "", $2); print $2; exit }' "$1"
}

status=0
for w in "$@"; do
	echo
	echo "== $w: wire_pps (frames/s, higher is better), $pairs pairs =="
	values=$out/$w.pairs.txt
	: >"$values"
	i=1
	while [ "$i" -le "$pairs" ]; do
		if [ $((i % 2)) -eq 1 ]; then
			p=$(run "$tree" parent "$w" "$i")
			c=$(run "$root" change "$w" "$i")
		else
			c=$(run "$root" change "$w" "$i")
			p=$(run "$tree" parent "$w" "$i")
		fi
		echo "$p $c" >>"$values"
		echo "$i $p $c" | awk '{ printf "pair %2d  parent %11.0f  change %11.0f  %s\n", $1, $2, $3, ($3 > $2 ? "win" : $3 < $2 ? "loss" : "tie") }'
		i=$((i + 1))
	done
	sort -g -k1,1 "$values" | cut -d' ' -f1 >"$values.parent"
	sort -g -k2,2 "$values" | cut -d' ' -f2 >"$values.change"
	awk "$quantile"'
		FILENAME ~ /\.parent$/ { p[++np] = $1; next }
		FILENAME ~ /\.change$/ { c[++nc] = $1; next }
		{ n++; if ($2 > $1) wins++; else if ($2 == $1) ties++ }
		END {
			pm = q(p, np, .5); cm = q(c, nc, .5); iqr = q(p, np, .75) - q(p, np, .25)
			printf "parent  median %11.0f  quartiles [%.0f, %.0f]\n", pm, q(p, np, .25), q(p, np, .75)
			printf "change  median %11.0f  quartiles [%.0f, %.0f]  (x%.3f of the parent median)\n", cm, q(c, nc, .25), q(c, nc, .75), cm / pm
			printf "change wins %d of %d pairs, %d ties; medians differ by %.0f, parent inter-quartile spread %.0f\n", wins, n, ties, cm - pm, iqr
			enough = (n >= 10); won = (wins * 10 >= n * 9); apart = (cm - pm > iqr)
			if (enough && won && apart) { print "verdict: gain claimed"; exit 0 }
			printf "verdict: NO gain claimed:%s%s%s\n", enough ? "" : " fewer than ten pairs;", won ? "" : " fewer than nine tenths of the pairs won;", apart ? "" : " medians no further apart than the parent spread;"
			exit 1
		}
	' "$values.parent" "$values.change" "$values" || status=1

	for m in cpu_ns_per_frame peak_rss_mib setup_s; do
		for side in parent change; do
			i=1
			while [ "$i" -le "$pairs" ]; do
				metric "$out/$w.$side.$i.json" "$m"
				i=$((i + 1))
			done | sort -g | awk -v m="$m" -v side="$side" "$quantile"'
				{ v[++n] = $1 }
				END { printf "%-16s  %s  median %10.6g  quartiles [%.6g, %.6g]  n=%d\n", m, side, q(v, n, .5), q(v, n, .25), q(v, n, .75), n }
			'
		done
	done
done
exit $status
