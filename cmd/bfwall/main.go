// Command bfwall is the live packet plane: it pulls raw Ethernet frames
// from a capture source, decodes them on the zero-copy header path
// (packet.DecodeInto — no Frame materialization, no payload reads),
// batches them into the filter's allocation-free batch data plane, and
// emits verdicts at line rate with an HTTP monitoring plane on the side:
//
//	GET /healthz   liveness (503 when a supervised loop stalls)
//	GET /readyz    readiness (503 while starting or draining)
//	GET /stats     pump + filter introspection (JSON)
//	GET /metrics   Prometheus text exposition (pps, drops, decode error
//	               classes, p50/p99 per-packet latency, resilience
//	               counters)
//
// Between capture and filter sits a resilience layer: a supervisor
// classifies source errors (a truncated pcap record or an EINTR is
// survivable, a bad magic number is not), retries transient failures
// with jittered exponential backoff, and reopens the source when it
// keeps failing; a bounded frame queue sheds under overload per
// -on-overload (drop = fail-closed, the security posture; admit =
// fail-open, the availability posture); a watchdog flags wedged loops;
// and SIGTERM drains gracefully — intake stops, in-flight frames are
// judged, a final checkpoint is taken — within -drain-timeout.
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
// exits, so the same trace can be replayed elsewhere (tcpdump, bfreplay).
//
// Usage:
//
//	bfwall -bench                         # saturation check, in memory
//	bfwall -gen scan.pcap -scan-pps 500000
//	bfwall -pcap scan.pcap -loops 10 -listen :8081
//	bfwall -tenants fleet.json -pcap trace.pcap
//	bfwall -pcap trace.pcap -checkpoint state.bmf -on-overload drop
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
	"bitmapfilter/internal/filtering"
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

// snapFilter is the filter surface bfwall drives: the batch data plane
// plus snapshot output for checkpointing. core.Build's Snapshottable and
// *tenant.Set both satisfy it.
type snapFilter interface {
	filtering.BatchFilter
	WriteSnapshot(w io.Writer) error
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bfwall", flag.ContinueOnError)
	var (
		pcapPath = fs.String("pcap", "", "pcap trace to replay (default: synthesize one in memory)")
		loops    = fs.Int("loops", 1, "replay the trace this many times back-to-back")
		iface    = fs.String("iface", "", "live AF_PACKET capture interface (requires -tags afpacket build)")
		snapLen  = fs.Int("snaplen", capture.DefaultSnapLen, "per-frame capture buffer bytes")
		batch    = fs.Int("batch", 512, "frames per batch through the filter data plane")
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

		onOverload = fs.String("on-overload", "drop", "overload policy when the frame queue fills: drop (fail-closed) or admit (fail-open)")
		queue      = fs.Int("queue", 8192, "bounded frame queue between capture and filter, in frames (0 disables the overload stage; the default applies to -iface only, a replayed trace is back-pressured)")
		drainTO    = fs.Duration("drain-timeout", 5*time.Second, "graceful-drain deadline after SIGTERM")
		srcRetries = fs.Int("source-retries", resilience.DefaultMaxConsecutiveFailures, "consecutive source failures tolerated before the daemon gives up")
		stallAfter = fs.Duration("stall-after", resilience.DefaultStallAfter, "watchdog stall threshold for the supervised loops (0 disables the watchdog)")
		ckpt       = fs.String("checkpoint", "", "checkpoint file; restores state on startup and persists it periodically and on SIGTERM")
		ckptDt     = fs.Duration("checkpoint-every", 30*time.Second, "periodic checkpoint interval (with -checkpoint; jittered ±10%)")

		scanPPS  = fs.Float64("scan-pps", 500_000, "synthesized scan rate in packets/s")
		connRate = fs.Float64("conn-rate", 25, "synthesized legitimate session arrival rate per second")
		genDur   = fs.Duration("gen-duration", time.Second, "synthesized trace duration (virtual time)")
		seed     = fs.Uint64("seed", 1, "synthesized trace seed")

		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the pump, from its start to its drain, to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	policy, err := resilience.ParsePolicy(*onOverload)
	if err != nil {
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

	bf, restoreRes, err := buildFilter(*ckpt, *tenantsF, *order, *vectors, *hashes, *rotate, *shards)
	if err != nil {
		return err
	}
	restoreRes.Report(out, os.Stderr, "bfwall", *ckpt)

	// The resilience plane: watchdog probes for every supervised loop,
	// a lifecycle state machine behind /healthz and /readyz.
	var (
		wd           *resilience.Watchdog
		captureProbe *resilience.Probe
	)
	if *stallAfter > 0 {
		wd = resilience.NewWatchdog(nil)
		captureProbe = wd.Heartbeat("capture", *stallAfter)
	}
	health := resilience.NewHealth(wd)
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "bfwall: "+format+"\n", args...)
	}

	factory, err := sourceFactory(*pcapPath, *iface, *loops, *snapLen, gcfg, out)
	if err != nil {
		return err
	}
	sup, err := resilience.NewSupervisor(resilience.SupervisorConfig{
		Open:                   factory,
		MaxConsecutiveFailures: *srcRetries,
		Heartbeat:              beatFn(captureProbe),
		Logf:                   logf,
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
			Policy:   policy,
			Logf:     logf,
		})
		src = buf
	}
	defer src.Close()

	// With -checkpoint the daemon persists snapshots periodically and
	// once more after the drain, and a watchdog probe verifies the
	// checkpointer keeps checkpointing.
	var cp *checkpoint.Checkpointer
	if *ckpt != "" {
		var ckptProbe *resilience.Probe
		if wd != nil {
			ckptProbe = wd.Heartbeat("checkpoint", max(3**ckptDt, *stallAfter))
		}
		cp, err = checkpoint.New(checkpoint.Config{
			Path:      *ckpt,
			Write:     bf.WriteSnapshot,
			Interval:  *ckptDt,
			Heartbeat: beatFn(ckptProbe),
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

	// The data plane: W = min(GOMAXPROCS, 4) workers in front of whatever the
	// filter's type makes the commit step (internal/pump), with a probe for
	// every goroutine of it that can wedge.
	started := time.Now()
	p := pump.New(pump.Config{Source: src, Filter: bf, Subnets: subnets, Batch: *batch, Logf: logf})
	if wd != nil {
		p.Watch(wd, *stallAfter)
	}

	// The last thing that can fail before the pump runs: from here to the
	// drain there is no return path, so the profile is always stopped.
	var profile *os.File
	if *cpuProfile != "" {
		if profile, err = startCPUProfile(*cpuProfile); err != nil {
			return err
		}
	}

	plane := &resiliencePlane{sup: sup, buf: buf, health: health, restore: restoreRes, policy: policy}
	if cp != nil {
		plane.cp = cp // a nil *Checkpointer in the interface would read as configured
	}

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
	// only after every worker and every lane has been joined — and only then
	// is the final checkpoint taken, all within the drain deadline.
	start := time.Now()
	pumpDone := make(chan error, 1)
	go func() { pumpDone <- p.Run() }()
	health.SetReady()

	var runErr error
	drained := true
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
		printBenchReport(out, snap, elapsed, *target)
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
				fmt.Fprintf(out, "bfwall: shed %d frames under overload (policy %s)\n", st.Shed, st.Policy)
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

// beatFn adapts a possibly-nil probe to an optional heartbeat hook.
func beatFn(p *resilience.Probe) func() {
	if p == nil {
		return nil
	}
	return p.Beat
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

// buildFilter composes the filter flavor from the flags: a tenant fleet
// when a config file is given, otherwise a single or sharded bitmap
// filter via the unified builder.
//
// With a checkpoint path it walks the restore ladder first — primary
// file, .bak rotation, cold start — and builds fresh from the flags only
// when no good snapshot exists. A restored fleet must be the fleet the
// config describes, or the daemon refuses to start: it would otherwise
// run the snapshot's tenants under the operator's belief that the edited
// config is in force. Checkpointing also forces every filter
// goroutine-safe (WithConcurrencySafe / the fleet's safe flavor): the
// periodic snapshot writer runs concurrently with the pump.
func buildFilter(ckptPath, tenantsPath string, order uint, vectors, hashes int, rotate time.Duration, shards int) (snapFilter, checkpoint.RestoreResult, error) {
	noRestore := checkpoint.RestoreResult{Outcome: checkpoint.OutcomeColdStartEmpty}
	if tenantsPath != "" {
		data, err := os.ReadFile(tenantsPath)
		if err != nil {
			return nil, noRestore, err
		}
		cfg, err := tenant.ParseConfig(data)
		if err != nil {
			return nil, noRestore, fmt.Errorf("%s: %w", tenantsPath, err)
		}
		if ckptPath != "" {
			// The snapshot serializes each tenant's flavor (including
			// safe), so no extra options are needed on restore.
			var restored *tenant.Set
			res := checkpoint.Restore(ckptPath, func(r io.Reader) error {
				set, err := tenant.ReadSnapshot(r, nil)
				if err != nil {
					return err
				}
				restored = set
				return nil
			})
			if res.Outcome.Restored() {
				if err := restored.SameFleet(cfg.Tenants); err != nil {
					return nil, res, fmt.Errorf("checkpoint %s does not hold the fleet of %s: %w (remove the checkpoint to start the new fleet cold, or restore the config)", res.File, tenantsPath, err)
				}
				return restored, res, nil
			}
			for i := range cfg.Tenants {
				cfg.Tenants[i].Options = append(cfg.Tenants[i].Options, core.WithConcurrencySafe())
			}
			set, err := tenant.NewSet(cfg)
			return set, res, err
		}
		set, err := tenant.NewSet(cfg)
		return set, noRestore, err
	}
	geom := []core.Option{
		core.WithOrder(order),
		core.WithVectors(vectors),
		core.WithHashes(hashes),
		core.WithRotateEvery(rotate),
	}
	opts := geom
	if shards > 1 {
		opts = append(opts, core.WithShards(shards))
	} else if ckptPath != "" {
		opts = append(opts, core.WithConcurrencySafe())
	}
	if ckptPath != "" {
		// Restore takes only the parameter options (the flavor is encoded
		// in the snapshot container; core.New rejects flavor options), and
		// the restored single filter is wrapped goroutine-safe here.
		var restored snapFilter
		res := checkpoint.Restore(ckptPath, func(r io.Reader) error {
			snap, err := core.ReadAnySnapshot(r, geom...)
			if err != nil {
				return err
			}
			if f, ok := snap.(*core.Filter); ok {
				restored = core.NewSafe(f)
			} else {
				restored = snap
			}
			return nil
		})
		if res.Outcome.Restored() {
			return restored, res, nil
		}
		f, err := core.Build(opts...)
		return f, res, err
	}
	f, err := core.Build(opts...)
	return f, noRestore, err
}

// sourceFactory returns a constructor for the capture source, so the
// supervisor can reopen it after persistent failures: a fresh AF_PACKET
// bind for a NIC, a fresh Replay over the trace bytes (read or
// synthesized exactly once, and walked in place: every Replay shares
// them, none copies them) otherwise.
func sourceFactory(pcapPath, iface string, loops, snapLen int, gcfg genConfig, out io.Writer) (func() (capture.Source, error), error) {
	if iface != "" {
		// Probe once so a missing build tag or interface fails at startup
		// with a clear error instead of spinning the supervisor.
		probe, err := openAFPacket(iface, snapLen)
		if err != nil {
			return nil, err
		}
		probe.Close()
		return func() (capture.Source, error) { return openAFPacket(iface, snapLen) }, nil
	}
	var data []byte
	if pcapPath != "" {
		var err error
		data, err = os.ReadFile(pcapPath)
		if err != nil {
			return nil, err
		}
	} else {
		var buf bytes.Buffer
		frames, span, err := writeScanTrace(&buf, gcfg)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "bfwall: synthesized %d frames spanning %v (scan %.0f pps)\n",
			frames, span, gcfg.scanPPS)
		data = buf.Bytes()
	}
	return func() (capture.Source, error) {
		return capture.NewReplayBytes(data, loops)
	}, nil
}

// printBenchReport renders the -bench verdict: did the wire-to-verdict
// loop keep up with the target packet rate?
func printBenchReport(out io.Writer, snap pump.Snapshot, elapsed time.Duration, target float64) {
	pps := 0.0
	if elapsed > 0 {
		pps = float64(snap.Frames) / elapsed.Seconds()
	}
	verdict := "SATURATED"
	if pps < target {
		verdict = "NOT saturated"
	}
	fmt.Fprintf(out, "bfwall bench: %d frames in %v wall (%.0f pps)\n", snap.Frames, elapsed.Round(time.Millisecond), pps)
	fmt.Fprintf(out, "  decode errors: %d, unrouted: %d, truncated: %d\n",
		sumDecodeErrors(snap), snap.Unrouted, snap.Truncated)
	fmt.Fprintf(out, "  verdicts: out=%d in=%d pass=%d drop=%d\n",
		snap.Outgoing, snap.Incoming, snap.Passed, snap.Dropped)
	// The pump's two serial terms: wall/frame is at least the larger.
	perFrame := func(d time.Duration) float64 {
		if snap.Frames == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(snap.Frames)
	}
	fmt.Fprintf(out, "  serial stages: read %.1f ns/frame, commit %.1f ns/frame (W=%d)\n",
		perFrame(snap.SourceBusy), perFrame(snap.CommitBusy), snap.Workers)
	fmt.Fprintf(out, "  per-packet latency: p50=%v p99=%v\n", snap.LatencyP50, snap.LatencyP99)
	ratio := 0.0
	if target > 0 {
		ratio = pps / target
	}
	fmt.Fprintf(out, "  target %.0f pps: %s (%.2fx)\n", target, verdict, ratio)
}
