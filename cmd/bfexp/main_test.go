package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGolden runs each deterministic subcommand and compares what it
// prints, byte for byte, with testdata/<name>.golden: the numbers
// EXPERIMENTS.md cites.
func TestGolden(t *testing.T) {
	for _, cmd := range []string{
		"trace",
		"capacity",
		"fig4",
		"fig5 -order 16",
		"insider",
		"apd",
		"bandwidth",
		"worm",
		"collude -duration 3m -rate 20",
		"ablate",
		"plan -conns 15000 -p 0.05",
		"table1 -conns 10000",
	} {
		args := strings.Fields(cmd)
		t.Run(args[0], func(t *testing.T) {
			t.Parallel()
			var out bytes.Buffer
			if err := run(args, &out); err != nil {
				t.Fatal(err)
			}
			if args[0] == "table1" { // it prints wall-clock ns: it runs, nothing is pinned
				return
			}
			path := filepath.Join("testdata", args[0]+".golden")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("bfexp %s differs from %s; if the change is meant, regenerate it with\n\tgo run ./cmd/bfexp %s > cmd/bfexp/%s\ngot:\n%s\nwant:\n%s",
					cmd, path, cmd, path, out.Bytes(), want)
			}
		})
	}
}

// TestRunUsage: a missing or unknown name, a stray argument and a flag the
// subcommand does not read are errors, and the usage error names every
// subcommand.
func TestRunUsage(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"nonesuch"},
		{"-order", "16"},
		{"capacity", "extra"},
		{"fig5", "-order", "16", "extra"},
		{"apd", "-order", "16"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("bfexp %q accepted", args)
		}
	}
	err := run(nil, io.Discard)
	for _, c := range commands {
		if !strings.Contains(err.Error(), c.name) {
			t.Errorf("usage %q does not name %s", err, c.name)
		}
	}
}

// TestReplaySmoke writes the seed-1 minute of campus traffic as a pcap and
// replays it through both filters, end to end through a file. The totals
// are what the per-packet replay loop printed before replay ran the pump,
// and what `bfwall -pcap` prints for the same file.
func TestReplaySmoke(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.pcap")
	if err := run([]string{"trace", "-duration", "60s", "-seed", "1", "-pcap", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"-filter", "bitmap", "-stats"}, []string{
			"frames:    51813 (0 skipped)\n",
			"outgoing:  23164\n",
			"incoming:  28649  passed 28328  dropped 321  (drop rate 1.120%)\n",
			"lifetimes: 1113 connections, q90 23.0s, q95 32.0s, >515s 0.000%\n",
			"delays:    28328 measured, q95 0.79s, q99 2.68s\n",
		}},
		{[]string{"-filter", "spi"}, []string{
			"frames:    51813 (0 skipped)\n",
			"incoming:  28649  passed 28320  dropped 329  (drop rate 1.148%)\n",
		}},
	} {
		var out bytes.Buffer
		if err := run(append([]string{"replay", "-in", path}, tc.args...), &out); err != nil {
			t.Fatal(err)
		}
		for _, line := range tc.want {
			if !strings.Contains(out.String(), line) {
				t.Errorf("replay %s: missing %q in:\n%s", strings.Join(tc.args, " "), line, out.String())
			}
		}
	}
}

func TestParseRates(t *testing.T) {
	got, err := parseRates("100, 2500.5 ,9")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{100, 2500.5, 9}
	if len(got) != len(want) {
		t.Fatalf("%d rates", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("rate %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestParseRatesErrors(t *testing.T) {
	for _, in := range []string{"", "abc", "100,-5", "100,0", "100,,200"} {
		if _, err := parseRates(in); err == nil {
			t.Errorf("parseRates(%q) accepted", in)
		}
	}
}
