// Command bfserve runs a live bitmap filter as a long-running daemon with
// an HTTP monitoring and control plane:
//
//	GET  /healthz     liveness
//	GET  /stats       filter introspection (JSON)
//	GET  /metrics     Prometheus text exposition
//	POST /punch       §5.1 hole punching
//	POST /checkpoint  persist a snapshot now (with -checkpoint)
//
// With -checkpoint <path> the daemon becomes crash-safe: it restores
// filter state from the newest good checkpoint on startup (falling back
// to the .bak rotation and finally to a cold start), persists a snapshot
// every -checkpoint-every (jittered) and once more on SIGTERM, so a
// restarting edge router keeps admitting established flows instead of
// blacking them out for up to T_e.
//
// With -tenants <file> the daemon serves a multi-tenant fleet instead of
// a single filter: the JSON file maps client prefixes to per-tenant
// filter plans (see internal/tenant.ParseConfig for the schema), packets
// route to their tenant by longest-prefix match, /stats and /metrics
// grow per-tenant series, and — when the file configures a shared memory
// budget — a background ticker re-plans per-tenant geometry from
// observed flow counts every -rebalance interval. Checkpointing persists
// and restores the whole fleet atomically.
//
// In -demo mode (default) a calibrated synthetic workload is replayed
// against the filter in wall-clock time at the configured speedup, so the
// endpoints show live numbers; a real deployment would instead feed
// packets from its capture path through the same live.Filter.
//
// Usage:
//
//	bfserve [-listen :8080] [-demo] [-speedup 10] [-order 20]
//	        [-tenants fleet.json] [-rebalance 10s]
//	        [-checkpoint /var/lib/bfserve/state.bmf] [-checkpoint-every 30s]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bitmapfilter/internal/checkpoint"
	"bitmapfilter/internal/core"
	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/httpapi"
	"bitmapfilter/internal/live"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/resilience"
	"bitmapfilter/internal/tenant"
	"bitmapfilter/internal/trafficgen"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bfserve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		listen  = flag.String("listen", "127.0.0.1:8080", "HTTP listen address")
		demo    = flag.Bool("demo", true, "replay a synthetic workload against the filter")
		speedup = flag.Float64("speedup", 10, "demo replay speed relative to real time")
		rate    = flag.Float64("rate", 25, "demo session arrival rate per second (trace time)")
		order   = flag.Uint("order", 20, "bitmap order n")
		vectors = flag.Int("vectors", 4, "bitmap vector count k")
		hashes  = flag.Int("hashes", 3, "hash count m")
		rotate  = flag.Duration("rotate", 5*time.Second, "rotation period Δt")
		shards  = flag.Int("shards", 1, "shard count (>1 runs the sharded data plane)")
		apd     = flag.String("apd", "", `adaptive packet dropping: "ratio" or "bandwidth" (§5.3)`)
		apdCap  = flag.Float64("apd-capacity", 100e6, "link capacity in bits/s for -apd bandwidth")
		tenants = flag.String("tenants", "", "multi-tenant fleet config (JSON); replaces the single-filter geometry flags")
		rebal   = flag.Duration("rebalance", 0, "budget rebalance interval for a -tenants fleet (0 = every fleet rotation period)")
		ckpt    = flag.String("checkpoint", "", "checkpoint file; restores state on startup and persists it periodically and on SIGTERM")
		ckptDt  = flag.Duration("checkpoint-every", 30*time.Second, "periodic checkpoint interval (with -checkpoint; jittered ±10%)")
	)
	flag.Parse()

	mkAPD, err := apdFactory(*apd, *apdCap)
	if err != nil {
		return err
	}

	var (
		filter     *live.Filter
		restoreRes checkpoint.RestoreResult
		fleetCfg   *tenant.SetConfig
	)
	if *tenants != "" {
		data, err := os.ReadFile(*tenants)
		if err != nil {
			return err
		}
		cfg, err := tenant.ParseConfig(data)
		if err != nil {
			return fmt.Errorf("%s: %w", *tenants, err)
		}
		fleetCfg = &cfg
		filter, restoreRes, err = buildTenantFleet(*ckpt, cfg, mkAPD)
		if err != nil {
			return err
		}
	} else {
		opts := []core.Option{
			core.WithOrder(*order),
			core.WithVectors(*vectors),
			core.WithHashes(*hashes),
			core.WithRotateEvery(*rotate),
		}
		if mkAPD != nil {
			opts = append(opts, core.WithAPD(mkAPD()))
		}
		filter, restoreRes, err = buildLiveFilter(*ckpt, opts, *shards)
		if err != nil {
			return err
		}
	}
	restoreRes.Report(os.Stdout, os.Stderr, "bfserve", *ckpt)
	if err := filter.StartRotations(0); err != nil {
		return err
	}
	defer filter.StopRotations()

	// The resilience plane: a watchdog over every background loop, with
	// /healthz turning 503 on a stall and /readyz tracking the lifecycle.
	// Rotation liveness is value-driven — the rotation counter must keep
	// advancing within a few periods — so a wedged rotation goroutine is
	// indistinguishable from a wedged filter, which is exactly the alarm
	// an operator wants.
	wd := resilience.NewWatchdog(nil)
	health := resilience.NewHealth(wd)
	rotStall := max(4*filter.RotateEvery(), resilience.DefaultStallAfter)
	wd.Progress("rotation", rotStall, func() uint64 { return filter.Stats().Rotations })

	// With -checkpoint the daemon persists snapshots periodically (and on
	// SIGTERM below); the API gains POST /checkpoint and the
	// bitmapfilter_checkpoint_* series, and the checkpointer reports into
	// its own watchdog probe.
	var (
		cp      *checkpoint.Checkpointer
		apiOpts []httpapi.Option
	)
	apiOpts = append(apiOpts, httpapi.WithHealth(health))
	if *ckpt != "" {
		ckptProbe := wd.Heartbeat("checkpoint", max(3**ckptDt, resilience.DefaultStallAfter))
		cp, err = checkpoint.New(checkpoint.Config{
			Path:      *ckpt,
			Write:     filter.WriteSnapshot,
			Interval:  *ckptDt,
			Heartbeat: ckptProbe.Beat,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "bfserve: "+format+"\n", args...)
			},
		})
		if err != nil {
			return err
		}
		if err := cp.Start(); err != nil {
			return err
		}
		defer cp.Stop()
		apiOpts = append(apiOpts, httpapi.WithCheckpointer(cp, restoreRes))
	}

	api, err := httpapi.New(filter, apiOpts...)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Addr:              *listen,
		Handler:           api,
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// A budgeted fleet re-plans per-tenant geometry in the background.
	// Resizes only land at rotation boundaries (tenant.Set.Rebalance), so
	// the default cadence is the fleet's fastest rotation period.
	rebalDone := make(chan struct{})
	if fleetCfg != nil && fleetCfg.Budget != nil {
		interval := *rebal
		if interval <= 0 {
			interval = filter.RotateEvery()
		}
		go func() {
			defer close(rebalDone)
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if n, err := filter.Rebalance(); err != nil {
						fmt.Fprintln(os.Stderr, "bfserve: rebalance:", err)
					} else if n > 0 {
						fmt.Printf("bfserve: rebalanced %d tenant filters (fleet %d KiB)\n",
							n, filter.MemoryBytes()/1024)
					}
				}
			}
		}()
	} else {
		close(rebalDone)
	}
	defer func() { <-rebalDone }()

	errCh := make(chan error, 1)
	go func() {
		fmt.Printf("bfserve: listening on http://%s (filter %s, %d KiB)\n",
			*listen, filter.Name(), filter.Stats().MemoryBytes/1024)
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
			return
		}
		errCh <- nil
	}()

	demoDone := make(chan struct{})
	if *demo {
		demoProbe := wd.Heartbeat("demo", resilience.DefaultStallAfter)
		go func() {
			defer close(demoDone)
			if err := runDemo(ctx, filter, *rate, *speedup, demoProbe); err != nil {
				fmt.Fprintln(os.Stderr, "bfserve: demo feed:", err)
			}
		}()
	} else {
		close(demoDone)
	}
	health.SetReady()

	select {
	case <-ctx.Done():
		fmt.Println("\nbfserve: shutting down")
		// Drain order: readiness flips first (load balancers stop routing
		// here), then the final state persists, then the listener closes.
		health.SetDraining()
		// Persist the final state before the server goes away, so the
		// next boot warm-starts from the very last marks.
		if cp != nil {
			if err := cp.CheckpointNow(); err != nil {
				fmt.Fprintln(os.Stderr, "bfserve: final checkpoint:", err)
			} else {
				fmt.Printf("bfserve: final checkpoint saved to %s\n", *ckpt)
			}
		}
	case err := <-errCh:
		stop()
		<-demoDone
		return err
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	<-demoDone
	return <-errCh
}

// apdFactory validates the -apd flags once and returns a constructor
// minting an independent policy instance per call — each tenant (and
// each snapshot restore) must get its own policy state, never a shared
// one. A nil factory means APD is off.
func apdFactory(name string, capacity float64) (func() core.DropPolicy, error) {
	switch name {
	case "":
		return nil, nil
	case "ratio":
		if _, err := core.NewRatioPolicy(1, 3, 5*time.Second); err != nil {
			return nil, err
		}
		return func() core.DropPolicy {
			p, _ := core.NewRatioPolicy(1, 3, 5*time.Second)
			return p
		}, nil
	case "bandwidth":
		if _, err := core.NewBandwidthPolicy(capacity, 5*time.Second); err != nil {
			return nil, err
		}
		return func() core.DropPolicy {
			p, _ := core.NewBandwidthPolicy(capacity, 5*time.Second)
			return p
		}, nil
	default:
		return nil, fmt.Errorf("unknown -apd policy %q (want ratio or bandwidth)", name)
	}
}

// buildTenantFleet returns the wall-clock multi-tenant data plane. The
// restore ladder mirrors buildLiveFilter: the snapshot is authoritative
// for fleet membership and per-tenant geometry, while the config file's
// budget and the -apd policy — neither of which serializes — are
// re-attached on top. live.Adopt back-dates the adapter start so every
// tenant's marks keep their residual lifetime across the restart.
func buildTenantFleet(ckptPath string, cfg tenant.SetConfig, mkAPD func() core.DropPolicy) (*live.Filter, checkpoint.RestoreResult, error) {
	extra := func(string) []core.Option {
		if mkAPD == nil {
			return nil
		}
		return []core.Option{core.WithAPD(mkAPD())}
	}
	cold := func() (*live.Filter, error) {
		if mkAPD != nil {
			for i := range cfg.Tenants {
				cfg.Tenants[i].Options = append(cfg.Tenants[i].Options, core.WithAPD(mkAPD()))
			}
		}
		set, err := tenant.NewSet(cfg)
		if err != nil {
			return nil, err
		}
		return live.New(set)
	}
	if ckptPath == "" {
		f, err := cold()
		return f, checkpoint.RestoreResult{Outcome: checkpoint.OutcomeColdStartEmpty}, err
	}
	var restored *live.Filter
	res := checkpoint.Restore(ckptPath, func(r io.Reader) error {
		set, err := tenant.ReadSnapshot(r, extra)
		if err != nil {
			return err
		}
		if cfg.Budget != nil {
			if err := set.AttachBudget(cfg.Budget); err != nil {
				return err
			}
		}
		f, err := live.Adopt(set)
		if err != nil {
			return err
		}
		restored = f
		return nil
	})
	if res.Outcome.Restored() {
		return restored, res, nil
	}
	f, err := cold()
	return f, res, err
}

// buildLiveFilter returns the wall-clock filter the daemon serves. With a
// checkpoint path it walks the restore ladder first — primary file, .bak
// rotation, cold start — and only builds a fresh filter from the flags
// when no good snapshot exists; the snapshot is authoritative for the
// filter geometry (order/vectors/shards), while APD policies, which are
// deliberately not serialized, are re-attached from the flags via opts.
func buildLiveFilter(ckptPath string, opts []core.Option, shards int) (*live.Filter, checkpoint.RestoreResult, error) {
	if ckptPath != "" {
		var restored *live.Filter
		res := checkpoint.Restore(ckptPath, func(r io.Reader) error {
			f, err := live.ReadSnapshot(r, opts)
			if err != nil {
				return err
			}
			restored = f
			return nil
		})
		if res.Outcome.Restored() {
			return restored, res, nil
		}
		f, err := coldFilter(opts, shards)
		return f, res, err
	}
	f, err := coldFilter(opts, shards)
	return f, checkpoint.RestoreResult{Outcome: checkpoint.OutcomeColdStartEmpty}, err
}

// coldFilter builds an empty filter from the flags. Any core flavor rides
// behind the same wall-clock adapter; a sharded filter clones the APD
// policy per shard and exposes per-shard gauges on /metrics.
func coldFilter(opts []core.Option, shards int) (*live.Filter, error) {
	var inner live.Inner
	if shards > 1 {
		sh, err := core.NewSharded(shards, opts...)
		if err != nil {
			return nil, err
		}
		inner = sh
	} else {
		f, err := core.New(opts...)
		if err != nil {
			return nil, err
		}
		inner = f
	}
	return live.New(inner)
}

// Demo feed batching: packets due within demoBatchSlack of "now" are
// coalesced and stamped through one live.ObserveBatchInto call, the same
// way a NIC-ring poller delivers everything that arrived since the last
// poll. Both buffers are reused, so the steady-state feed is
// allocation-free.
const (
	demoBatchSize  = 256
	demoBatchSlack = 2 * time.Millisecond
)

// runDemo replays the calibrated trace against the filter, pacing trace
// time at `speedup` × wall-clock time, looping forever until ctx ends.
// probe, when set, tracks the feed's liveness: every flushed batch
// beats it, and the pacing sleeps are marked idle so a slow trace is
// not mistaken for a wedged feed.
func runDemo(ctx context.Context, filter *live.Filter, rate, speedup float64, probe *resilience.Probe) error {
	if speedup <= 0 {
		return fmt.Errorf("speedup must be positive")
	}
	seed := uint64(1)
	batch := make([]packet.Packet, 0, demoBatchSize)
	var verdicts []filtering.Verdict
	flush := func() {
		verdicts = filter.ObserveBatchInto(batch, verdicts)
		batch = batch[:0]
		if probe != nil {
			probe.Beat()
		}
	}
	for {
		cfg := trafficgen.DefaultConfig()
		cfg.Duration = 10 * time.Minute
		cfg.ConnRate = rate
		cfg.Seed = seed
		seed++
		gen, err := trafficgen.NewGenerator(cfg)
		if err != nil {
			return err
		}
		epoch := time.Now()
		for {
			pkt, ok := gen.Next()
			if !ok {
				break
			}
			// Pace: the packet is due at epoch + traceTime/speedup.
			// Anything due sooner than the slack rides in the current
			// batch instead of sleeping.
			due := epoch.Add(time.Duration(float64(pkt.Time) / speedup))
			if wait := time.Until(due); wait > demoBatchSlack {
				flush()
				if probe != nil {
					probe.SetIdle(true)
				}
				select {
				case <-ctx.Done():
					return nil // left idle: the feed is gone, not wedged
				case <-time.After(wait):
				}
				if probe != nil {
					probe.SetIdle(false)
				}
			} else if ctx.Err() != nil {
				flush()
				return nil
			}
			batch = append(batch, pkt)
			if len(batch) == demoBatchSize {
				flush()
			}
		}
		flush()
	}
}
