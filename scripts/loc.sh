#!/bin/sh
# loc.sh — non-test and test Go lines per package, the table ROADMAP item 7
# asks every deletion PR to print before and after.
#
#   scripts/loc.sh [REF]
#
# Without REF it counts the working tree (tracked and new files alike, ignored
# ones not); with REF, that commit. Lines are `wc -l` lines — comments and
# blanks included — of *.go files, split on the _test.go suffix and grouped by
# directory. The last two rows are the sums, with and without bench/ (which a
# PR that may not touch the benchmark reports separately).
set -eu

ref=${1:-}
cd "$(git rev-parse --show-toplevel)"

if [ -n "$ref" ]; then
	git ls-tree -r --name-only "$ref" | grep '\.go$' | while read -r f; do
		echo "$(git show "$ref:$f" | wc -l) $f"
	done
else
	git ls-files -co --exclude-standard -- '*.go' | while read -r f; do
		[ -f "$f" ] && echo "$(wc -l <"$f") $f" # a deletion not yet staged is listed but gone
	done
fi | awk '
{
	dir = $2
	if (!sub(/\/[^\/]*$/, "", dir)) dir = "."
	if ($2 ~ /_test\.go$/) test[dir] += $1; else code[dir] += $1
	seen[dir] = 1
}
END {
	printf "%-44s %9s %9s\n", "package", "non-test", "test"
	n = 0
	for (d in seen) dirs[++n] = d
	# insertion sort: awk has no portable sort
	for (i = 2; i <= n; i++) {
		for (j = i; j > 1 && dirs[j] < dirs[j-1]; j--) { t = dirs[j]; dirs[j] = dirs[j-1]; dirs[j-1] = t }
	}
	for (i = 1; i <= n; i++) {
		d = dirs[i]
		printf "%-44s %9d %9d\n", d, code[d], test[d]
		c += code[d]; t2 += test[d]
		if (d != "bench" && d !~ /^bench\//) { cb += code[d]; tb += test[d] }
	}
	printf "%-44s %9d %9d\n", "total", c, t2
	printf "%-44s %9d %9d\n", "total outside bench/", cb, tb
}'
