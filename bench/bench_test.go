package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestSmoke runs the whole benchmark on tiny traces — build, generate, real
// bfwall subprocess, traced in-process passes, oracles — and checks that
// every named metric comes out, finite and unit-tagged, with the output
// checks passing. A renamed bfwall flag or report line fails here, in
// tier-1, not in the next performance PR.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs bfwall; skipped with -short")
	}
	out := filepath.Join(t.TempDir(), "result.json")
	var stdout bytes.Buffer
	if err := run([]string{"-smoke", "-o", out}, &stdout); err != nil {
		t.Fatalf("bench -smoke: %v\n%s", err, stdout.String())
	}
	rf, err := readResultFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(rf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the result, want %d", len(rf.Workloads), len(workloads))
	}
	for i, res := range rf.Workloads {
		if res.Name != workloads[i].name {
			t.Errorf("workload %d is %q, want %q", i, res.Name, workloads[i].name)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d: %v", res.Name, res.Correct, res.Failed, res.Attempted, res.Errors)
		}
		if len(res.Trace.SHA256) != 64 || res.Trace.Frames != res.Trace.Outgoing+res.Trace.Incoming {
			t.Errorf("%s: trace record %+v", res.Name, res.Trace)
		}
		for _, def := range endToEnd {
			m, ok := res.EndToEnd[def.name]
			if !ok || m.Unit != def.unit || !(m.Value > 0) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: end-to-end metric %s = %+v (present %v), want a positive finite value in %s", res.Name, def.name, m, ok, def.unit)
			}
		}
		for _, def := range perLayer {
			v, ok := res.Layers[def.name]
			if !ok || v.Unit != def.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: per-layer metric %s = %+v (present %v), want a finite value in %s", res.Name, def.name, v, ok, def.unit)
			}
		}
		if len(res.EndToEnd) != len(endToEnd) || len(res.Layers) != len(perLayer) {
			t.Errorf("%s: %d end-to-end and %d per-layer metrics, want %d and %d", res.Name, len(res.EndToEnd), len(res.Layers), len(endToEnd), len(perLayer))
		}
		if fn := res.Layers["core.false_negatives"].Value; fn != 0 {
			t.Errorf("%s: %v false negatives", res.Name, fn)
		}
	}
	if rf.Environment.GoVersion == "" || rf.Environment.NumCPU == 0 {
		t.Errorf("environment not recorded: %+v", rf.Environment)
	}

	// A result compared with itself has no worse row.
	var cmp bytes.Buffer
	if worse := compare(&cmp, rf, rf); worse != 0 {
		t.Errorf("self-compare: %d worse rows\n%s", worse, cmp.String())
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to the harness one-to-one: names,
// units, directions, bounds, workloads, and the command that runs it.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if want := []string{"go", "run", "./bench"}; !reflect.DeepEqual(doc.Command, want) {
		t.Errorf("command %q, want %q", doc.Command, want)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(doc.Paths, want) {
		t.Errorf("paths %q, want %q", doc.Paths, want)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, want %s / %s", i, doc.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, def := range want {
			g := got[i]
			if g.Name != def.name || g.Unit != def.unit || g.Better != def.better {
				t.Errorf("%s %d: %+v, want %+v", kind, i, g, def)
			}
			if bounded != (g.Bound != nil) || bounded && *g.Bound != def.bound {
				t.Errorf("%s %s: bound %v, want bounded=%v %v", kind, def.name, g.Bound, bounded, def.bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}

// TestTraceDeterminism: the same seed gives a byte-identical pcap, another
// seed another one.
func TestTraceDeterminism(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		w = w.smoke()
		gen := func(seed uint64, name string) ([]byte, traceInfo) {
			path := filepath.Join(dir, name)
			info, err := writeTrace(w, seed, path)
			if err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			return data, info
		}
		a, ia := gen(1, "a.pcap")
		b, ib := gen(1, "b.pcap")
		c, ic := gen(2, "c.pcap")
		if !bytes.Equal(a, b) || ia.SHA256 != ib.SHA256 {
			t.Errorf("%s: seed 1 twice gave different traces", w.name)
		}
		if bytes.Equal(a, c) || ia.SHA256 == ic.SHA256 {
			t.Errorf("%s: seeds 1 and 2 gave the same trace", w.name)
		}
	}
}

// TestQuartiles pins the quartile rule to Python's
// statistics.quantiles(values, n=4), which the acceptance rule is stated in.
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		in           []float64
		q1, med, q3v float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
	} {
		q1, med, q3 := quartiles(tc.in)
		if q1 != tc.q1 || med != tc.med || q3 != tc.q3v {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.in, q1, med, q3, tc.q1, tc.med, tc.q3v)
		}
	}
}

func TestVerdict(t *testing.T) {
	pps := metricDef{name: "wire_pps", unit: "frames/s", better: "higher", bound: 0.05}
	at := func(median, iqrShare float64) measured {
		return measured{Value: median, Median: median, Q1: median * (1 - iqrShare/2), Q3: median * (1 + iqrShare/2)}
	}
	for _, tc := range []struct {
		a, b measured
		want string
	}{
		{at(100, 0.01), at(100.5, 0.01), "same"},
		{at(100, 0.01), at(93, 0.01), "worse"},
		{at(100, 0.01), at(103, 0.01), "better"},
		{at(100, 0.08), at(90, 0.01), "unresolved"},
		{at(100, 0.01), at(97, 0.01), "same"},
	} {
		if got := verdict(pps, tc.a, tc.b); got != tc.want {
			t.Errorf("verdict(%v → %v) = %s, want %s", tc.a.Median, tc.b.Median, got, tc.want)
		}
	}
}

func TestParseBenchReport(t *testing.T) {
	const report = `bfwall bench: 10007460 frames in 1.643s wall (6090799 pps)
  decode errors: 1, unrouted: 2, truncated: 3
  verdicts: out=1740 in=10005720 pass=1640 drop=10004080
  per-packet latency: p50=153ns p99=310ns
  target 500000 pps: SATURATED (12.18x)
`
	var r binRun
	if err := parseBenchReport(report, &r); err != nil {
		t.Fatal(err)
	}
	want := totals{Frames: 10007460, Out: 1740, In: 10005720, Pass: 1640, Drop: 10004080, DecodeErrs: 1, Unrouted: 2, Truncated: 3}
	if r.totals != want || r.pps != 6090799 {
		t.Errorf("parsed %+v pps %v, want %+v", r.totals, r.pps, want)
	}
	if err := parseBenchReport("bfwall: 10 frames, 3 out / 7 in\n", &r); err == nil {
		t.Error("a report without the bench lines parsed")
	}
}

func TestCheckTotals(t *testing.T) {
	want := totals{Frames: 100, Out: 40, In: 60, Pass: 50, Drop: 10}
	if failed, err := checkTotals(want, want); failed != 0 || err != nil {
		t.Errorf("equal totals: failed=%d err=%v", failed, err)
	}
	for _, got := range []totals{
		{Frames: 90, Out: 36, In: 54, Pass: 45, Drop: 9},                  // frames missing
		{Frames: 100, Out: 40, In: 59, Pass: 49, Drop: 10, DecodeErrs: 1}, // a decode error
		{Frames: 100, Out: 40, In: 60, Pass: 51, Drop: 9},                 // a verdict differs
	} {
		if failed, err := checkTotals(got, want); failed == 0 || err == nil {
			t.Errorf("%+v against %+v: failed=%d err=%v, want a failure", got, want, failed, err)
		}
	}
}
