package main

import (
	"bytes"
	"testing"
)

// TestRun pins both placements' counts: the same traffic and scan, the same
// drops, and the core placement's one bitmap against the edges' two.
func TestRun(t *testing.T) {
	const want = `=== per-edge filters ===
  router 0: out=200 in-passed=200 in-dropped=49619
  router 1: out=200 in-passed=200 in-dropped=49681
  total: filters=2 memory=64 KiB attack+benign in=99700 dropped=99300 (99.60%)

=== core aggregation filter ===
  router 0: out=400 in-passed=400 in-dropped=99300
  total: filters=1 memory=32 KiB attack+benign in=99700 dropped=99300 (99.60%)

`
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != want {
		t.Errorf("got:\n%s\nwant:\n%s", got, want)
	}
}
