#!/bin/sh
# replay-smoke.sh — bftrace -pcap → bfreplay -in, for -filter bitmap and
# -filter spi: the offline caller of internal/pump, end to end through a file.
# The capture is the seed-1 minute of campus traffic, whose totals are pinned:
# they are what the per-packet replay loop printed before bfreplay ran the
# pump, and what `bfwall -pcap` prints for the same file.
set -eu

cd "$(git rev-parse --show-toplevel)"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go run ./cmd/bftrace -duration 60s -seed 1 -pcap "$tmp/t.pcap" >/dev/null

expect() { # file, line that must be in it
	grep -qF -- "$2" "$1" || { echo "replay-smoke: missing \"$2\" in:" >&2; cat "$1" >&2; exit 1; }
}

go run ./cmd/bfreplay -in "$tmp/t.pcap" -filter bitmap -stats >"$tmp/bitmap.txt"
expect "$tmp/bitmap.txt" 'frames:    51813 (0 skipped)'
expect "$tmp/bitmap.txt" 'outgoing:  23164'
expect "$tmp/bitmap.txt" 'incoming:  28649  passed 28328  dropped 321  (drop rate 1.120%)'
expect "$tmp/bitmap.txt" 'lifetimes: 1113 connections, q90 23.0s, q95 32.0s, >515s 0.000%'
expect "$tmp/bitmap.txt" 'delays:    28328 measured, q95 0.79s, q99 2.68s'

go run ./cmd/bfreplay -in "$tmp/t.pcap" -filter spi >"$tmp/spi.txt"
expect "$tmp/spi.txt" 'frames:    51813 (0 skipped)'
expect "$tmp/spi.txt" 'incoming:  28649  passed 28320  dropped 329  (drop rate 1.148%)'

echo "replay-smoke: ok (51813 frames; bitmap 28328/321, spi 28320/329)"
