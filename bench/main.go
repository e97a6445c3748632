// Command bench is the wire-to-verdict benchmark: it generates each
// workload's pcap from a seed, runs the real bfwall binary over it as a
// subprocess for the end-to-end numbers, and replays the same trace
// in-process, timing calls into each layer's public functions, for the
// per-layer numbers. README.md in this directory defines every metric and
// workload; BENCHMARK.json at the repository root names them.
//
//	go run ./bench                      every workload, both halves
//	go run ./bench -smoke               the same on tiny traces, under a second each
//	go run ./bench -workload scan_flood -seed 7 -seconds 15 -trace 0
//	go run ./bench -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// outDir holds everything the benchmark writes: the bfwall binary, traces,
// span dumps, the result file. It is relative to the module root.
const outDir = ".bench_build"

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

type config struct {
	seed    uint64
	seconds float64 // timed bfwall seconds per workload
	trace   int     // 0 end to end, 1 per layer, 2 both
	smoke   bool

	dir  string // absolute outDir
	bins binaries
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name      = fs.String("workload", "", "run one workload (default: all of them)")
		seed      = fs.Uint64("seed", 1, "workload seed: the same seed gives byte-identical traces")
		seconds   = fs.Float64("seconds", 40, "seconds of timed bfwall runs per workload, made as runs of about a second each")
		trace     = fs.Int("trace", 2, "0: end-to-end metrics only, tracing off; 1: per-layer metrics from the traced in-process run; 2: both")
		smoke     = fs.Bool("smoke", false, "tiny traces, one timed run, a few hundred ms per workload: checks the harness, not the program's speed")
		out       = fs.String("o", "", "result file (default "+outDir+"/result.json)")
		doCompare = fs.Bool("compare", false, "compare two result files: bench -compare A.json B.json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *doCompare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		a, err := readResultFile(fs.Arg(0))
		if err != nil {
			return err
		}
		b, err := readResultFile(fs.Arg(1))
		if err != nil {
			return err
		}
		if worse := compare(stdout, a, b); worse > 0 {
			return fmt.Errorf("%d rows worse", worse)
		}
		return nil
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *trace < 0 || *trace > 2 {
		return fmt.Errorf("-trace %d: want 0, 1 or 2", *trace)
	}

	if *seconds <= 0 {
		return fmt.Errorf("-seconds %v: want > 0", *seconds)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace, smoke: *smoke}
	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		selected = []workload{w}
	}

	root, err := moduleRoot()
	if err != nil {
		return err
	}
	cfg.dir = filepath.Join(root, outDir)
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return err
	}
	if cfg.bins, err = buildBinaries(root, cfg.dir); err != nil {
		return err
	}

	rf := resultFile{
		Schema:      resultSchema,
		Seed:        cfg.seed,
		Smoke:       cfg.smoke,
		Seconds:     cfg.seconds,
		Environment: describeEnvironment(root),
	}
	failed := 0
	for _, w := range selected {
		if cfg.smoke {
			w = w.smoke()
		}
		res, err := measure(cfg, w)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		rf.Workloads = append(rf.Workloads, res)
		report(stdout, res, cfg.trace)
		if !res.Correct {
			failed++
		}
	}
	path := *out
	if path == "" {
		path = filepath.Join(cfg.dir, "result.json")
	}
	if err := writeResultFile(path, rf); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("output checks failed on %d workloads; their metrics are invalid", failed)
	}
	return nil
}

// measure runs one workload: generate its inputs, size the runs, then the
// end-to-end half, the per-layer half, or both.
func measure(cfg config, w workload) (workloadResult, error) {
	res := workloadResult{Name: w.name, Correct: true, Loops: w.loops}
	p, err := prepare(w, cfg.seed, cfg.dir)
	if err != nil {
		return res, err
	}
	res.Trace = p.trace
	trace, err := os.ReadFile(p.trace.Path)
	if err != nil {
		return res, err
	}
	args := w.bfwallArgs(p.trace.Path, p.fleetPath, w.loops)
	res.Argv = append([]string{"bfwall"}, args...)

	// A warm-up run fills the page cache and tells how long a run takes on
	// this machine, hence how many fit into -seconds: at least three, or the
	// quartiles mean nothing.
	warm, err := runBfwall(cfg.bins, args)
	if err != nil {
		return res, err
	}
	res.Repeats = max(3, int(math.Round(cfg.seconds/warm.pump.Seconds())))
	if cfg.smoke {
		res.Repeats = 1
	}

	if cfg.trace != 1 {
		if err := measureEndToEnd(cfg, p, trace, warm, &res); err != nil {
			return res, err
		}
	}
	if cfg.trace != 0 {
		if err := measureLayers(cfg, p, trace, &res); err != nil {
			return res, err
		}
	}
	return res, nil
}

// oracleLoops is how many passes of the trace are checked per packet against
// the exact filter: enough virtual time for marks to expire (k·Δt) and one
// more rotation, but never more than the run has.
func oracleLoops(w workload, loops int) int {
	need := int((vectors+1)*rotateEvery/w.virtual) + 1
	return min(loops, max(2, need))
}

// measureEndToEnd makes the timed runs: bfwall as a subprocess, tracing off,
// every run's totals checked against the verified in-process run.
func measureEndToEnd(cfg config, p prepared, trace []byte, warm binRun, res *workloadResult) error {
	ref, err := runReference(p, trace, res.Loops, oracleLoops(p.w, res.Loops))
	if err != nil {
		return err
	}
	res.Reference = ref.totals
	if err := ref.oracle.err(); err != nil {
		res.fail(err)
	}

	args := res.Argv[1:]
	samples := map[string][]float64{
		// Set-up does not depend on the loop count, so the warm-up run
		// contributes a sample too.
		"setup_s": {(warm.wall - warm.pump).Seconds()},
	}
	for i := 0; i < res.Repeats; i++ {
		r, err := runBfwall(cfg.bins, args)
		if err != nil {
			return err
		}
		res.Attempted += ref.totals.Frames
		failed, err := checkTotals(r.totals, ref.totals)
		res.Failed += failed
		if err != nil {
			res.fail(fmt.Errorf("timed run %d: %w", i+1, err))
		}
		frames := float64(r.Frames)
		samples["wire_pps"] = append(samples["wire_pps"], r.pps)
		samples["cpu_ns_per_frame"] = append(samples["cpu_ns_per_frame"], float64(r.cpu.Nanoseconds())/frames)
		samples["peak_rss_mib"] = append(samples["peak_rss_mib"], float64(r.maxRSSKB)/1024)
		samples["setup_s"] = append(samples["setup_s"], (r.wall - r.pump).Seconds())
	}
	res.EndToEnd = map[string]measured{}
	for _, def := range endToEnd {
		res.EndToEnd[def.name] = summarize(def, samples[def.name])
	}
	return nil
}

// layerBinRuns is how many bfwall runs the per-layer half makes to take the
// pump's residual against; their median pps is used.
const layerBinRuns = 3

// measureLayers makes the traced run: about a tenth of the timed frames,
// same trace, same geometry, replayed in-process with spans around the calls
// into each layer, plus a few bfwall runs of the same length so the pump's
// own residual can be taken against them.
func measureLayers(cfg config, p prepared, trace []byte, res *workloadResult) error {
	w := p.w
	loops := max(1, (res.Loops*res.Repeats+9)/10)
	res.TracedLoops = loops

	r, err := runLayers(p, trace, loops)
	if err != nil {
		return err
	}
	ref, err := runReference(p, trace, loops, oracleLoops(w, loops))
	if err != nil {
		return err
	}
	if err := ref.oracle.err(); err != nil {
		res.fail(err)
	}
	if r.shadowExact && r.shadowPasses != ref.totals.Pass {
		res.fail(fmt.Errorf("shadow vectors passed %d packets, the filter %d: the key_hash/touch spans did not do the filter's work", r.shadowPasses, ref.totals.Pass))
	}
	if r.buffer.shed > 0 {
		res.fail(fmt.Errorf("resilience.Buffer shed %d frames behind a windowed source", r.buffer.shed))
	}
	var pps []float64
	var attempted, failed uint64
	for i := 0; i < layerBinRuns; i++ {
		bin, err := runBfwall(cfg.bins, w.bfwallArgs(p.trace.Path, p.fleetPath, loops))
		if err != nil {
			return err
		}
		n, err := checkTotals(bin.totals, ref.totals)
		if err != nil {
			res.fail(fmt.Errorf("traced-length run %d: %w", i+1, err))
		}
		attempted += ref.totals.Frames
		failed += n
		pps = append(pps, bin.pps)
	}
	if cfg.trace == 1 {
		res.Reference, res.Attempted, res.Failed = ref.totals, attempted, failed
	}
	_, medianPPS, _ := quartiles(pps)
	budget := 1e9 / medianPPS // ns bfwall spends per frame

	const off, on = 0, 1
	pipe := r.pipe
	self, count := r.traced.selfTimes()
	shSelf, shCount := r.shadowed.selfTimes()
	ns := func(d time.Duration, n uint64) float64 { return float64(d.Nanoseconds()) / float64(n) }
	micros := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	untraced := ns(pipe.busy[off], pipe.frames[off])
	process, plain := ns(self[spanProcess], pipe.judged[on]), ns(shSelf[spanPlain], r.judged)

	m := map[string]float64{
		"capture.read_ns_per_frame":    ns(self[spanRead], pipe.frames[on]),
		"capture.bytes_per_frame":      float64(pipe.bytes) / float64(pipe.totals.Frames),
		"packet.decode_ns_per_frame":   ns(self[spanDecode], pipe.frames[on]),
		"packet.decode_errors":         float64(pipe.totals.DecodeErrs),
		"packet.classify_ns_per_frame": ns(self[spanClassify], pipe.frames[on]),
		"packet.unrouted":              float64(pipe.totals.Unrouted),
		"hashfam.key_hash_ns_per_pkt":  ns(shSelf[spanKeyHash], r.judged),
		"bitvector.touch_ns_per_pkt":   ns(shSelf[spanTouch], r.judged),
		"bitvector.clear_us":           micros(shSelf[spanClear]) / float64(shCount[spanClear]),
		"core.process_ns_per_pkt":      process,
		"core.marks":                   float64(r.stats.Marks),
		"core.rotations":               float64(r.stats.Rotations),
		"core.utilization":             r.stats.Utilization,
		"core.batch_service_samples":   float64(count[spanProcess]),
		"core.false_negatives":         float64(ref.oracle.falseNegatives),
		"core.false_positives":         float64(ref.oracle.falsePositives),
		"core.false_positive_share":    share(ref.oracle.falsePositives, ref.oracle.upperDrops),

		"resilience.buffer_ns_per_frame": ns(r.buffer.elapsed, r.buffer.frames),
		"resilience.buffer_max_depth":    float64(r.buffer.maxDepth),
		"resilience.buffer_shed_frames":  float64(r.buffer.shed),
		"pipeline.untraced_ns_per_frame": untraced,
		"pipeline.stage_sum_share":       ns(self[spanRead]+self[spanDecode]+self[spanClassify]+self[spanProcess], pipe.frames[on]) / untraced,
		"bfwall.residual_ns_per_frame":   budget - untraced,
		"runtime.allocs_per_frame":       float64(r.mallocs) / float64(pipe.totals.Frames),
		"trace.overhead_share":           ns(pipe.busy[on], pipe.frames[on])/untraced - 1,

		// 0 on the workloads whose path does not cross the layer.
		"core.lane_overhead_ns_per_pkt": 0,
		"tenant.route_ns_per_pkt":       0,
		"tenant.process_ns_per_pkt":     0,
		"tenant.overhead_ns_per_pkt":    0,
	}
	// The filter stage is tenant.Set on a fleet and core elsewhere; the
	// shadow's plain core.Filter on the same packets is what the fleet's and
	// the lanes' overheads are taken against.
	switch {
	case w.tenants > 0:
		m["tenant.process_ns_per_pkt"] = process
		m["tenant.route_ns_per_pkt"] = ns(shSelf[spanRoute], r.judged)
		m["tenant.overhead_ns_per_pkt"] = process - plain
		m["core.process_ns_per_pkt"] = plain
	case w.shards > 1:
		m["core.lane_overhead_ns_per_pkt"] = process - plain
	}
	m["core.self_ns_per_pkt"] = m["core.process_ns_per_pkt"] - m["hashfam.key_hash_ns_per_pkt"] - m["bitvector.touch_ns_per_pkt"]

	service := r.traced.durations(spanProcess)
	sort.Slice(service, func(i, j int) bool { return service[i] < service[j] })
	n := len(service)
	m["core.batch_service_us_p50"] = micros(service[n/2])
	m["core.batch_service_us_p99"] = micros(service[n*99/100])
	m["core.batch_service_us_max"] = micros(service[n-1])

	res.Layers = map[string]value{}
	for _, def := range perLayer {
		v, ok := m[def.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			res.fail(fmt.Errorf("per-layer metric %s not measured (%v)", def.name, v))
			continue
		}
		res.Layers[def.name] = value{Value: v, Unit: def.unit}
	}
	res.Attribution = attribution(m, budget)

	res.SpanFile = filepath.Join(cfg.dir, w.name+".spans.jsonl")
	return writeSpans(res.SpanFile, r)
}

// attribution states whether the per-layer numbers add up: the four stage
// spans against the untraced pipeline, the two remainders against the frame
// budget, the cost of tracing itself. Out-of-band lines are findings about
// the measurement, not output failures, so they do not invalidate the run.
func attribution(m map[string]float64, budget float64) []string {
	line := func(ok bool, format string, args ...any) string {
		tag := "ok          "
		if !ok {
			tag = "OUT OF BAND "
		}
		return tag + fmt.Sprintf(format, args...)
	}
	sum := m["pipeline.stage_sum_share"]
	self := m["core.self_ns_per_pkt"]
	resid := m["bfwall.residual_ns_per_frame"]
	over := m["trace.overhead_share"]
	return []string{
		line(math.Abs(sum-1) <= 0.10, "stage spans sum to %.1f%% of the untraced pipeline's %.1f ns/frame (within 10%%)", 100*sum, m["pipeline.untraced_ns_per_frame"]),
		line(self >= -0.05*budget, "core.self %.1f ns/pkt against a frame budget of %.1f ns (≥ −5%%)", self, budget),
		line(resid >= -0.05*budget, "bfwall.residual %.1f ns/frame against a frame budget of %.1f ns (≥ −5%%)", resid, budget),
		line(over < 0.02, "tracing costs %.2f%% of the untraced pipeline (< 2%%)", 100*over),
	}
}

func writeSpans(path string, r *layerRun) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := r.traced.writeTo(f, "traced"); err != nil {
		return err
	}
	if err := r.shadowed.writeTo(f, "shadow"); err != nil {
		return err
	}
	return f.Close()
}

// report prints every metric by name with its unit, then the one-line JSON
// object the driver reads: the end-to-end metrics with -trace 0, the
// per-layer metrics with -trace 1.
func report(w io.Writer, res workloadResult, trace int) {
	fmt.Fprintf(w, "\n%s: %d frames/pass (%d out, %d in), %d loops × %d timed runs, sha256 %.12s\n",
		res.Name, res.Trace.Frames, res.Trace.Outgoing, res.Trace.Incoming, res.Loops, res.Repeats, res.Trace.SHA256)
	status := "valid"
	if !res.Correct {
		status = "INVALID"
	}
	line := map[string]value{} // the driver's: end to end, or per layer with -trace 1
	if res.EndToEnd != nil {
		for _, def := range endToEnd {
			mm := res.EndToEnd[def.name]
			fmt.Fprintf(w, "  %-32s %14.6g %-9s q1 %.6g median %.6g q3 %.6g n=%d  %s\n", def.name, mm.Value, mm.Unit, mm.Q1, mm.Median, mm.Q3, len(mm.Samples), status)
			line[def.name] = value{Value: mm.Value, Unit: mm.Unit}
		}
		fmt.Fprintf(w, "  %-32s %14.6g %-9s %d of %d frames\n", "failed_frame_share", share(res.Failed, res.Attempted), "ratio", res.Failed, res.Attempted)
	}
	if res.Layers != nil {
		for _, def := range perLayer {
			if v, ok := res.Layers[def.name]; ok {
				fmt.Fprintf(w, "  %-32s %14.6g %-9s %s\n", def.name, v.Value, v.Unit, status)
			}
		}
		for _, a := range res.Attribution {
			fmt.Fprintf(w, "  attribution: %s\n", a)
		}
		if trace == 1 {
			line = res.Layers
		}
	}
	for _, e := range res.Errors {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", e)
	}
	out, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, line})
	fmt.Fprintf(w, "%s\n", out)
}
