// Command bfwall is the live packet plane: it pulls raw Ethernet frames
// from a capture source, decodes them on the zero-copy header path
// (packet.DecodeInto — no Frame materialization, no payload reads),
// batches them into the filter's allocation-free batch data plane, and
// emits verdicts at line rate with an HTTP monitoring plane on the side:
//
//	GET  /healthz     liveness (503 when a supervised loop stalls)
//	GET  /readyz      readiness (503 while starting or draining)
//	GET  /stats       pump, filter and bitmap introspection (JSON)
//	GET  /metrics     Prometheus text exposition (pps, drops, decode error
//	                  classes, p50/p99 per-packet latency, the bitmap's
//	                  utilization, penetration and APD state, resilience
//	                  counters)
//	POST /punch       §5.1 hole punching: ?local=10.0.0.5&port=20000
//	                  &remote=198.51.100.7&proto=tcp
//	POST /checkpoint  persist a snapshot now (with -checkpoint)
//
// Between capture and filter sits a resilience layer: a supervisor
// classifies source errors (a truncated pcap record or an EINTR is
// survivable, a bad magic number is not), retries transient failures
// with jittered exponential backoff, and reopens the source when it
// keeps failing; a bounded frame queue (-queue) sheds under overload —
// a shed frame is counted and never judged; a watchdog flags loops that
// stop beating for 30 s; and SIGTERM drains gracefully — intake stops,
// in-flight frames are judged, a final checkpoint is taken — within
// -drain-timeout.
//
// The filter is a single bitmap, -shards N of them, or a -tenants fleet,
// with -apd attaching §5.3 adaptive packet dropping to every one. A fleet
// whose config sets a memory budget re-plans its tenants' geometry once per
// rotation period. With -checkpoint the filter is restored on startup (the
// checkpoint file, its .bak, else a cold start) and persisted periodically
// and after the drain, so a restarting edge router keeps admitting
// established flows instead of blacking them out for up to T_e.
//
// Sources, most hermetic first:
//
//	(default)      a synthesized Figure 5 trace — legitimate sessions
//	               with a random-scan flood at -scan-pps — replayed
//	               through the full wire path, -loops times
//	-pcap FILE     a recorded trace, replayed at filter speed
//	-iface NAME    a real NIC via AF_PACKET (build with -tags afpacket;
//	               needs CAP_NET_RAW)
//
// In -bench mode the daemon runs the source to exhaustion and reports
// whether the pump saturates -target packets per second (the paper's
// Figure 5 scan floor is 500K pps), with per-packet latency quantiles.
// With -gen FILE it writes the synthesized trace to a pcap file and
// exits, so the same trace can be replayed elsewhere (tcpdump, bfexp replay).
//
// Usage:
//
//	bfwall -bench                         # saturation check, in memory
//	bfwall -listen :8080 -loops 1000      # the synthesized trace, served
//	bfwall -gen scan.pcap -scan-pps 500000
//	bfwall -pcap scan.pcap -loops 10 -listen :8081
//	bfwall -tenants fleet.json -pcap trace.pcap -apd ratio
//	bfwall -pcap trace.pcap -checkpoint state.bmf -drain-timeout 5s
//	bfwall -bench -pcap scan.pcap -loops 40 -cpuprofile cpu.prof
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"runtime/pprof"
	"syscall"
	"time"

	"bitmapfilter/internal/capture"
	"bitmapfilter/internal/checkpoint"
	"bitmapfilter/internal/core"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/pump"
	"bitmapfilter/internal/resilience"
	"bitmapfilter/internal/tenant"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bfwall:", err)
		os.Exit(1)
	}
}

// readBatch is the frames the pump asks of the source per read: the pump's
// floor for a batch that changes goroutine, and the size 1024 and 2048
// were measured against and lost to.
const readBatch = 512

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bfwall", flag.ContinueOnError)
	var (
		pcapPath = fs.String("pcap", "", "pcap trace to replay (default: synthesize one in memory)")
		loops    = fs.Int("loops", 1, "replay the trace this many times back-to-back")
		iface    = fs.String("iface", "", "live AF_PACKET capture interface (requires -tags afpacket build)")
		snapLen  = fs.Int("snaplen", capture.DefaultSnapLen, "per-frame capture buffer bytes")
		listen   = fs.String("listen", "", "HTTP monitoring address (e.g. 127.0.0.1:8081); empty serves nothing")
		benchRun = fs.Bool("bench", false, "run the source to exhaustion, print a saturation report, exit")
		target   = fs.Float64("target", 500_000, "saturation target in packets/s for -bench")
		genPath  = fs.String("gen", "", "write the synthesized trace to this pcap file and exit")

		subnetsF = fs.String("subnets", "10.0.0.0/8", "comma-separated client subnets for direction classification")
		order    = fs.Uint("order", 20, "bitmap order n")
		vectors  = fs.Int("vectors", 4, "bitmap vector count k")
		hashes   = fs.Int("hashes", 3, "hash count m")
		rotate   = fs.Duration("rotate", 5*time.Second, "rotation period Δt")
		shards   = fs.Int("shards", 1, "shard count (>1 runs the sharded data plane)")
		tenantsF = fs.String("tenants", "", "multi-tenant fleet config (JSON); replaces the geometry flags")
		apd      = fs.String("apd", "", `adaptive packet dropping: "ratio" or "bandwidth" (§5.3)`)
		apdCap   = fs.Float64("apd-capacity", 100e6, "link capacity in bits/s for -apd bandwidth")

		queue   = fs.Int("queue", 8192, "bounded frame queue between capture and filter, in frames (0 disables the overload stage; the default applies to -iface only, a replayed trace is back-pressured)")
		drainTO = fs.Duration("drain-timeout", 5*time.Second, "graceful-drain deadline after SIGTERM")
		ckpt    = fs.String("checkpoint", "", "checkpoint file; restores state on startup and persists it periodically and on SIGTERM")
		ckptDt  = fs.Duration("checkpoint-every", 30*time.Second, "periodic checkpoint interval (with -checkpoint; jittered ±10%)")

		scanPPS  = fs.Float64("scan-pps", 500_000, "synthesized scan rate in packets/s")
		connRate = fs.Float64("conn-rate", 25, "synthesized legitimate session arrival rate per second")
		genDur   = fs.Duration("gen-duration", time.Second, "synthesized trace duration (virtual time)")
		seed     = fs.Uint64("seed", 1, "synthesized trace seed")

		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the pump, from its start to its drain, to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Only a NIC cannot be made to wait. A trace, recorded or synthesized,
	// is read unpaced: through the overload queue most of it would be shed
	// — wrong totals from a file that could simply be back-pressured, and a
	// -bench that measures the queue. So the queue defaults on for -iface
	// alone; an explicit -queue still wins.
	if *iface == "" {
		queueSet := false
		fs.Visit(func(f *flag.Flag) { queueSet = queueSet || f.Name == "queue" })
		if !queueSet {
			*queue = 0
		}
	}
	subnets, err := parseSubnets(*subnetsF)
	if err != nil {
		return err
	}
	gcfg := genConfig{
		scanPPS:  *scanPPS,
		connRate: *connRate,
		duration: *genDur,
		seed:     *seed,
		subnets:  subnets,
	}

	// -gen: synthesize, persist, done.
	if *genPath != "" {
		f, err := os.Create(*genPath)
		if err != nil {
			return err
		}
		frames, span, err := writeScanTrace(f, gcfg)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "bfwall: wrote %d frames spanning %v to %s\n", frames, span, *genPath)
		return nil
	}

	mkAPD, err := apdFactory(*apd, *apdCap)
	if err != nil {
		return err
	}
	buildStart := time.Now()
	spec := filterSpec{
		geom:   []core.Option{core.WithOrder(*order), core.WithVectors(*vectors), core.WithHashes(*hashes), core.WithRotateEvery(*rotate)},
		shards: *shards, apd: mkAPD, fleetPath: *tenantsF,
	}
	if *tenantsF != "" {
		data, err := os.ReadFile(*tenantsF)
		if err != nil {
			return err
		}
		cfg, err := tenant.ParseConfig(data)
		if err != nil {
			return fmt.Errorf("%s: %w", *tenantsF, err)
		}
		spec.fleet = &cfg
	}
	bf, restoreRes, err := buildFilter(*ckpt, spec)
	if err != nil {
		return err
	}
	buildTook := time.Since(buildStart)
	restoreRes.Report(out, os.Stderr, "bfwall", *ckpt)

	// The resilience plane: watchdog probes for every supervised loop,
	// a lifecycle state machine behind /healthz and /readyz.
	wd := resilience.NewWatchdog(nil)
	captureProbe := wd.Heartbeat("capture", resilience.DefaultStallAfter)
	health := resilience.NewHealth(wd)
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "bfwall: "+format+"\n", args...)
	}

	factory, trace, setup, err := sourceFactory(*pcapPath, *iface, *loops, *snapLen, gcfg, out)
	if err != nil {
		return err
	}
	setup.build = buildTook
	// The trace is unmapped once, after Run has returned: every Replay the
	// supervisor opens walks it until then. A pump that missed the drain
	// deadline may still be walking it, and keeps it until the process ends.
	drained := true
	if trace != nil {
		defer func() {
			if drained {
				trace.Close()
			}
		}()
	}
	sup, err := resilience.NewSupervisor(resilience.SupervisorConfig{
		Open:      factory,
		Heartbeat: captureProbe.Beat,
		Logf:      logf,
	})
	if err != nil {
		return err
	}
	var src capture.Source = sup
	var buf *resilience.Buffer
	if *queue > 0 {
		buf = resilience.NewBuffer(sup, resilience.BufferConfig{
			Capacity: *queue,
			SnapLen:  *snapLen,
			Logf:     logf,
		})
		src = buf
	}
	defer src.Close()

	// The data plane: W = min(GOMAXPROCS, 4) workers in front of whatever the
	// filter's type makes the commit step (internal/pump). Everything else
	// that touches the filter — the checkpointer and the control plane — goes
	// through p.Locked: a single filter is judged under the commit lock, and
	// is lent it.
	started := time.Now()
	p := pump.New(pump.Config{Source: src, Filter: bf, Subnets: subnets, Batch: readBatch, Logf: logf})

	// With -checkpoint the daemon persists snapshots periodically and
	// once more after the drain, and a watchdog probe verifies the
	// checkpointer keeps checkpointing.
	var cp *checkpoint.Checkpointer
	if *ckpt != "" {
		cp, err = checkpoint.New(checkpoint.Config{
			Path: *ckpt,
			Write: func(w io.Writer) (err error) {
				p.Locked(func() { err = bf.WriteSnapshot(w) })
				return err
			},
			Interval:  *ckptDt,
			Heartbeat: wd.Heartbeat("checkpoint", max(3**ckptDt, resilience.DefaultStallAfter)).Beat,
			Logf:      logf,
		})
		if err != nil {
			return err
		}
		if err := cp.Start(); err != nil {
			return err
		}
		defer cp.Stop()
	}

	// A probe for every goroutine of the pump that can wedge.
	p.Watch(wd, resilience.DefaultStallAfter)

	// The last thing that can fail before the pump runs: from here to the
	// drain there is no return path, so the profile is always stopped.
	var profile *os.File
	if *cpuProfile != "" {
		if profile, err = startCPUProfile(*cpuProfile); err != nil {
			return err
		}
	}

	plane := &controlPlane{bf: bf, locked: p.Locked, sup: sup, buf: buf, health: health, cp: cp, restore: restoreRes}

	var srv *http.Server
	httpErr := make(chan error, 1)
	if *listen != "" {
		srv = &http.Server{
			Addr:              *listen,
			Handler:           newMux(started, p.Snapshot, plane),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			fmt.Fprintf(out, "bfwall: monitoring on http://%s\n", *listen)
			if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				httpErr <- err
				return
			}
			httpErr <- nil
		}()
	}

	// The pump owns the hot loop. A signal starts the graceful drain:
	// readiness flips first (stop routing here), the source closes (intake
	// stops; queued frames still flow), the pump drains out — Run returns
	// only after every worker has been joined — then the rebalancer is
	// joined, and only then is the final checkpoint taken, all within the
	// drain deadline.
	quitRebalance := make(chan struct{})
	var rebalanced <-chan struct{}
	if spec.fleet != nil && spec.fleet.Budget != nil {
		rebalanced = rebalanceEvery(bf.(*tenant.Set), quitRebalance, logf)
	}
	start := time.Now()
	pumpDone := make(chan error, 1)
	go func() { pumpDone <- p.Run() }()
	health.SetReady()

	var runErr error
	select {
	case runErr = <-pumpDone:
		// Source exhausted on its own (replay, bench) or failed fatally.
		health.SetDraining()
	case <-ctx.Done():
		health.SetDraining()
		fmt.Fprintln(out, "bfwall: signal received, draining")
		src.Close()
		timer := time.NewTimer(*drainTO)
		select {
		case runErr = <-pumpDone:
			timer.Stop()
		case <-timer.C:
			drained = false
			runErr = fmt.Errorf("drain deadline %v exceeded with frames still in flight", *drainTO)
		}
	}
	elapsed := time.Since(start)
	close(quitRebalance)
	if rebalanced != nil && drained {
		<-rebalanced // a rebalance waits for the batch in flight, which may never end
	}
	// Whole before anything more is printed: a -bench run piped into head
	// dies of SIGPIPE on its report, after the file is closed.
	if profile != nil {
		pprof.StopCPUProfile()
		if err := profile.Close(); err != nil && runErr == nil {
			runErr = err
		}
	}

	if cp != nil {
		cp.Stop()
		if !drained {
			// The pump may still be mid-batch; a snapshot now could tear.
			// The periodic checkpoints remain the newest consistent state.
			logf("final checkpoint skipped: pump did not drain")
		} else if err := cp.CheckpointNow(); err != nil {
			logf("final checkpoint: %v", err)
			if runErr == nil {
				runErr = err
			}
		} else {
			fmt.Fprintf(out, "bfwall: final checkpoint saved to %s\n", *ckpt)
		}
	}

	if srv != nil {
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
		if herr := <-httpErr; runErr == nil {
			runErr = herr
		}
	}
	if runErr != nil {
		return runErr
	}

	snap := p.Snapshot()
	if *benchRun {
		setup.huge = anonHugeBytes("/proc/self/smaps_rollup")
		printBenchReport(out, snap, elapsed, *target, setup)
	} else {
		fmt.Fprintf(out, "bfwall: %d frames, %d out / %d in (%d passed, %d dropped), %d decode errors\n",
			snap.Frames, snap.Outgoing, snap.Incoming, snap.Passed, snap.Dropped,
			sumDecodeErrors(snap))
		if st := sup.Stats(); st.TransientErrors > 0 || st.Reopens > 0 {
			fmt.Fprintf(out, "bfwall: survived %d transient source errors (%d reopens)\n",
				st.TransientErrors, st.Reopens)
		}
		if buf != nil {
			if st := buf.Stats(); st.Shed > 0 {
				fmt.Fprintf(out, "bfwall: shed %d frames under overload\n", st.Shed)
			}
		}
	}
	return nil
}

// startCPUProfile starts the process's CPU profile into a new file at path,
// and leaves no file behind if it cannot.
func startCPUProfile(path string) (*os.File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("-cpuprofile: %w", err)
	}
	return f, nil
}

func sumDecodeErrors(snap pump.Snapshot) (total uint64) {
	for _, v := range snap.DecodeErrors {
		total += v
	}
	return total
}

// parseSubnets parses a comma-separated CIDR list.
func parseSubnets(s string) ([]packet.Prefix, error) {
	if s == "" {
		return nil, nil
	}
	out, err := packet.ParsePrefixes(s)
	if err != nil {
		return nil, fmt.Errorf("-subnets: %w", err)
	}
	return out, nil
}

// filterSpec is what the flags say the filter is.
type filterSpec struct {
	geom   []core.Option // -order, -vectors, -hashes, -rotate
	shards int
	// apd mints the -apd policy, one per filter: nil without -apd.
	apd func() core.DropPolicy
	// fleet is the -tenants config, parsed; nil without it.
	fleet     *tenant.SetConfig
	fleetPath string
}

// buildFilter composes the filter: a tenant fleet when spec has one,
// otherwise a single or sharded bitmap filter. A sharded filter's shards and
// a fleet's tenants are bare behind its one lock; a single filter is bare and
// single-goroutine, and whoever reads or punches it beside the pump goes
// through the pump's Locked.
//
// With a checkpoint path it walks the restore ladder first — primary file,
// .bak rotation, cold start — and builds fresh from the flags only when no
// good snapshot exists. The snapshot holds geometry, flavor and marks; what
// it cannot hold is added on every rung: a fresh -apd policy per filter
// (cloned per shard by core), and the fleet's budget. A restored fleet must
// be the fleet the config describes, or the daemon refuses to start: it
// would otherwise run the snapshot's tenants under the operator's belief
// that the edited config is in force.
func buildFilter(ckptPath string, spec filterSpec) (core.Snapshottable, checkpoint.RestoreResult, error) {
	withAPD := func(opts []core.Option) []core.Option {
		if spec.apd == nil {
			return opts
		}
		return append(opts[:len(opts):len(opts)], core.WithAPD(spec.apd()))
	}
	cold := func() (core.Snapshottable, error) {
		if spec.fleet == nil {
			if spec.shards > 1 {
				return core.NewSharded(spec.shards, withAPD(spec.geom)...)
			}
			return core.New(withAPD(spec.geom)...)
		}
		cfg := *spec.fleet // a copy: the policies appended below are this build's
		cfg.Tenants = append([]tenant.Config(nil), cfg.Tenants...)
		for i := range cfg.Tenants {
			cfg.Tenants[i].Options = withAPD(cfg.Tenants[i].Options)
		}
		return tenant.NewSet(cfg)
	}
	if ckptPath == "" {
		bf, err := cold()
		return bf, checkpoint.RestoreResult{Outcome: checkpoint.OutcomeColdStartEmpty}, err
	}
	var restored core.Snapshottable
	res := checkpoint.Restore(ckptPath, func(r io.Reader) error {
		if spec.fleet != nil {
			set, err := tenant.ReadSnapshot(r, func(string) []core.Option { return withAPD(nil) })
			restored = set
			return err
		}
		// The container records the flavor: a single filter or shards.
		f, err := core.ReadAnySnapshot(r, withAPD(spec.geom)...)
		restored = f
		return err
	})
	if !res.Outcome.Restored() {
		bf, err := cold()
		return bf, res, err
	}
	if set, ok := restored.(*tenant.Set); ok {
		if err := set.SameFleet(spec.fleet.Tenants); err != nil {
			return nil, res, fmt.Errorf("checkpoint %s does not hold the fleet of %s: %w (remove the checkpoint to start the new fleet cold, or restore the config)", res.File, spec.fleetPath, err)
		}
		if err := set.AttachBudget(spec.fleet.Budget); err != nil {
			return nil, res, err
		}
	}
	return restored, res, nil
}

// apdFactory validates the -apd flags once and returns a constructor
// minting an independent policy per call: each filter, tenant or restore
// gets its own policy state, never a shared one. A nil factory means APD is
// off.
func apdFactory(name string, capacity float64) (func() core.DropPolicy, error) {
	window := 5 * time.Second
	var mk func() (core.DropPolicy, error)
	switch name {
	case "":
		return nil, nil
	case "ratio":
		mk = func() (core.DropPolicy, error) { return core.NewRatioPolicy(1, 3, window) }
	case "bandwidth":
		mk = func() (core.DropPolicy, error) { return core.NewBandwidthPolicy(capacity, window) }
	default:
		return nil, fmt.Errorf("unknown -apd policy %q (want ratio or bandwidth)", name)
	}
	if _, err := mk(); err != nil {
		return nil, fmt.Errorf("-apd %s: %w", name, err)
	}
	return func() core.DropPolicy {
		p, _ := mk()
		return p
	}, nil
}

// rebalanceEvery re-plans a budgeted fleet against its budget once per the
// fleet's rotation period of wall time — resizes land only at rotation
// boundaries, so a faster cadence finds nothing to do — at the fleet's own
// clock, its packets'. It stops when quit closes, and closes the channel it
// returns once it has.
func rebalanceEvery(set *tenant.Set, quit <-chan struct{}, logf func(format string, args ...any)) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(set.RotateEvery())
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				if n, err := set.Rebalance(set.Stats().Now); err != nil {
					logf("rebalance: %v", err)
				} else if n > 0 {
					logf("rebalanced %d tenant filters", n)
				}
			}
		}
	}()
	return done
}

// setupTimes is what bfwall did before the first frame, as -bench reports it:
// how the trace came to be in memory, its size, and how long that and the
// filter's build took; and, read when the report prints, how much of the
// process sits on transparent huge pages, where the bitmap's vectors of
// order ≥ 25 ask to be.
type setupTimes struct {
	how         string // "mapped" or "read" (-pcap), "synthesized", or "live" (-iface)
	bytes       int
	load, build time.Duration
	huge        int64 // AnonHugePages in bytes; < 0 where it cannot be read
}

// anonHugeBytes returns the AnonHugePages line of an smaps_rollup file in
// bytes, or -1 if the file or the line is missing (off Linux, or a kernel
// without transparent huge pages).
func anonHugeBytes(path string) int64 {
	b, err := os.ReadFile(path)
	if err != nil {
		return -1
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		var kb int64
		if _, err := fmt.Sscanf(string(line), "AnonHugePages: %d kB", &kb); err == nil {
			return kb << 10
		}
	}
	return -1
}

// sourceFactory returns a constructor for the capture source, so the
// supervisor can reopen it after persistent failures: a fresh AF_PACKET
// bind for a NIC, a fresh Replay over the trace bytes otherwise — mapped
// or read by capture.OpenTrace (returned, for the caller to close once no
// Replay walks it), or synthesized, exactly once, and walked in place:
// every Replay shares them, none copies them.
func sourceFactory(pcapPath, iface string, loops, snapLen int, gcfg genConfig, out io.Writer) (func() (capture.Source, error), *capture.Trace, setupTimes, error) {
	start := time.Now()
	if iface != "" {
		// Probe once so a missing build tag or interface fails at startup
		// with a clear error instead of spinning the supervisor.
		probe, err := openAFPacket(iface, snapLen)
		if err != nil {
			return nil, nil, setupTimes{}, err
		}
		probe.Close()
		open := func() (capture.Source, error) { return openAFPacket(iface, snapLen) }
		return open, nil, setupTimes{how: "live", load: time.Since(start)}, nil
	}
	var (
		data  []byte
		trace *capture.Trace
		how   = "synthesized"
	)
	if pcapPath != "" {
		var err error
		if trace, err = capture.OpenTrace(pcapPath); err != nil {
			return nil, nil, setupTimes{}, err
		}
		data, how = trace.Bytes(), "read"
		if trace.Mapped() {
			how = "mapped"
		}
	} else {
		var buf bytes.Buffer
		frames, span, err := writeScanTrace(&buf, gcfg)
		if err != nil {
			return nil, nil, setupTimes{}, err
		}
		fmt.Fprintf(out, "bfwall: synthesized %d frames spanning %v (scan %.0f pps)\n",
			frames, span, gcfg.scanPPS)
		data = buf.Bytes()
	}
	open := func() (capture.Source, error) { return capture.NewReplayBytes(data, loops) }
	return open, trace, setupTimes{how: how, bytes: len(data), load: time.Since(start)}, nil
}

// printBenchReport renders the -bench verdict: did the wire-to-verdict
// loop keep up with the target packet rate?
func printBenchReport(out io.Writer, snap pump.Snapshot, elapsed time.Duration, target float64, st setupTimes) {
	pps := 0.0
	if elapsed > 0 {
		pps = float64(snap.Frames) / elapsed.Seconds()
	}
	verdict := "SATURATED"
	if pps < target {
		verdict = "NOT saturated"
	}
	fmt.Fprintf(out, "bfwall bench: %d frames in %v wall (%.0f pps)\n", snap.Frames, elapsed.Round(time.Millisecond), pps)
	// Before the first frame: the part of exec → exit that is not the pump;
	// then the bitmap, and how much of the process is on huge pages.
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
	huge := "n/a"
	if st.huge >= 0 {
		huge = fmt.Sprintf("%.1f MiB", float64(st.huge)/(1<<20))
	}
	fmt.Fprintf(out, "  setup: load %.1f ms (%s, %.1f MiB), build %.1f ms, bitmap %.1f MiB, %s on huge pages\n",
		ms(st.load), st.how, float64(st.bytes)/(1<<20), ms(st.build), float64(snap.FilterMemory)/(1<<20), huge)
	fmt.Fprintf(out, "  decode errors: %d, unrouted: %d, truncated: %d\n",
		sumDecodeErrors(snap), snap.Unrouted, snap.Truncated)
	fmt.Fprintf(out, "  verdicts: out=%d in=%d pass=%d drop=%d\n",
		snap.Outgoing, snap.Incoming, snap.Passed, snap.Dropped)
	// The pump's two serial terms — wall/frame is at least the larger — and
	// its parallel ones, decode and hash summed over the workers: wall/frame
	// is also at least all of it over the cores.
	perFrame := func(d time.Duration) float64 {
		if snap.Frames == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(snap.Frames)
	}
	fmt.Fprintf(out, "  serial stages: read %.1f ns/frame, commit %.1f ns/frame (W=%d); parallel: decode %.1f, hash %.1f ns/frame\n",
		perFrame(snap.SourceBusy), perFrame(snap.CommitBusy), snap.Workers, perFrame(snap.DecodeBusy), perFrame(snap.HashBusy))
	fmt.Fprintf(out, "  per-packet latency: p50=%v p99=%v\n", snap.LatencyP50, snap.LatencyP99)
	ratio := 0.0
	if target > 0 {
		ratio = pps / target
	}
	fmt.Fprintf(out, "  target %.0f pps: %s (%.2fx)\n", target, verdict, ratio)
}
