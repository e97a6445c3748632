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
# each workload (default scan_flood) it prints every pair's value of the
# claimed metric, METRIC (default wire_pps), the wins and ties, both sides'
# medians and quartiles, and the verdict. Which way is better is the
# metric's "better" in BENCHMARK.json: a pair is won when the change is
# higher (lower), and the medians are apart when the change's exceeds (falls
# short of) the parent's by more than the parent's own inter-quartile
# spread. A gain is claimed only if the change wins at least nine tenths of
# all pairs run (ties count for neither) and the medians are apart. Exit
# status 0 only if every workload meets it. Under the verdict come both
# sides' medians and quartiles of the other end-to-end metrics over the same
# runs, which a claim has to report as "must not move"; they are printed,
# not judged.
#
# BENCH_FLAGS passes extra flags to both sides alike, e.g.
# BENCH_FLAGS='-seed 7' for the seed the change was not written against;
# METRIC=setup_s judges the start-up time instead of the frame rate.
# The script only calls the harness; it edits nothing under bench/.
set -eu

[ $# -ge 1 ] || { sed -n '2,29s/^# \{0,1\}//p' "$0" >&2; exit 2; }
base=$1
pairs=${2:-10}
[ $# -ge 2 ] && shift 2 || shift 1
[ $# -ge 1 ] || set -- scan_flood

root=$(git rev-parse --show-toplevel)
metric=${METRIC:-wire_pps}
# The metric's direction, from the "better" line under its name.
better=$(awk -v name="\"name\": \"$metric\"" 'index($0, name) { found = 1; next } found && /"better":/ { gsub(/[",]/, "", $2); print $2; exit }' "$root/BENCHMARK.json")
case $better in
higher | lower) ;;
*) echo "METRIC=$metric: no end-to-end metric of that name in BENCHMARK.json" >&2; exit 2 ;;
esac
others=$(awk '/"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 } on && /"name":/ { gsub(/[",]/, "", $2); print $2 }' "$root/BENCHMARK.json" | grep -vx "$metric")
tree=$root/.bench_build/pairs-base
out=$root/.bench_build/pairs
mkdir -p "$out"

rm -rf "$tree"
mkdir -p "$tree"
trap 'rm -rf "$tree"' EXIT
git -C "$root" archive "$base" | tar -x -C "$tree"
echo "parent: $(git -C "$root" log -1 --format='%h %s' "$base")"
echo "change: working tree at $(git -C "$root" log -1 --format=%h)$(git -C "$root" diff --quiet HEAD || echo ' + uncommitted edits')"

# run DIR SIDE WORKLOAD PAIR prints the run's value of the claimed metric, or
# fails the script if the harness did, or if it judged the run incorrect.
run() {
	# shellcheck disable=SC2086 # BENCH_FLAGS is a flag list
	line=$(cd "$1" && go run ./bench -workload "$3" -trace 0 ${BENCH_FLAGS:-} -o "$out/$3.$2.$4.json" | grep '^{"correct"') ||
		{ echo "bench failed on the $2 side ($3, pair $4)" >&2; exit 1; }
	case $line in
	'{"correct":true,'*'"failed":0,'*) ;;
	*) echo "$2 side incorrect ($3, pair $4): $line" >&2; exit 1 ;;
	esac
	echo "$line" | sed 's/.*"'"$metric"'":{"value":\([0-9.e+-]*\).*/\1/'
}

# quantile of the sorted values v[1..n], linear between ranks; fmtv formats a
# value: whole frames per second, six digits of seconds or nanoseconds
quantile='function q(v, n, f,    h, lo) { h = (n - 1) * f + 1; lo = int(h); return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo]) }
function fmtv(v) { return (v >= 1e6 || v <= -1e6) ? sprintf("%.0f", v) : sprintf("%.6g", v) }'

# metric FILE NAME prints the value a result file reports for an end-to-end
# metric: the "value" line under its name.
metric() {
	awk -v name="\"$2\": {" 'index($0, name) { found = 1; next } found && /"value":/ { gsub(/[^0-9.e+-]/, "", $2); print $2; exit }' "$1"
}

status=0
for w in "$@"; do
	echo
	echo "== $w: $metric ($better is better), $pairs pairs =="
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
		echo "$i $p $c" | awk -v better="$better" "$quantile"'
			{ s = better == "higher" ? 1 : -1; printf "pair %2d  parent %12s  change %12s  %s\n", $1, fmtv($2), fmtv($3), (s * ($3 - $2) > 0 ? "win" : $3 != $2 ? "loss" : "tie") }'
		i=$((i + 1))
	done
	sort -g -k1,1 "$values" | cut -d' ' -f1 >"$values.parent"
	sort -g -k2,2 "$values" | cut -d' ' -f2 >"$values.change"
	awk -v better="$better" "$quantile"'
		BEGIN { s = better == "higher" ? 1 : -1 }
		FILENAME ~ /\.parent$/ { p[++np] = $1; next }
		FILENAME ~ /\.change$/ { c[++nc] = $1; next }
		{ n++; if (s * ($2 - $1) > 0) wins++; else if ($2 == $1) ties++ }
		END {
			pm = q(p, np, .5); cm = q(c, nc, .5); iqr = q(p, np, .75) - q(p, np, .25)
			printf "parent  median %12s  quartiles [%s, %s]\n", fmtv(pm), fmtv(q(p, np, .25)), fmtv(q(p, np, .75))
			printf "change  median %12s  quartiles [%s, %s]  (x%.3f of the parent median)\n", fmtv(cm), fmtv(q(c, nc, .25)), fmtv(q(c, nc, .75)), cm / pm
			printf "change wins %d of %d pairs, %d ties; medians differ by %s in its favour, parent inter-quartile spread %s\n", wins, n, ties, fmtv(s * (cm - pm)), fmtv(iqr)
			enough = (n >= 10); won = (wins * 10 >= n * 9); apart = (s * (cm - pm) > iqr)
			if (enough && won && apart) { print "verdict: gain claimed"; exit 0 }
			printf "verdict: NO gain claimed:%s%s%s\n", enough ? "" : " fewer than ten pairs;", won ? "" : " fewer than nine tenths of the pairs won;", apart ? "" : " medians no further apart than the parent spread;"
			exit 1
		}
	' "$values.parent" "$values.change" "$values" || status=1

	for m in $others; do
		for side in parent change; do
			i=1
			while [ "$i" -le "$pairs" ]; do
				metric "$out/$w.$side.$i.json" "$m"
				i=$((i + 1))
			done | sort -g | awk -v m="$m" -v side="$side" "$quantile"'
				{ v[++n] = $1 }
				END { printf "%-16s  %s  median %10s  quartiles [%s, %s]  n=%d\n", m, side, fmtv(q(v, n, .5)), fmtv(q(v, n, .25)), fmtv(q(v, n, .75)), n }
			'
		done
	done
done
exit $status
