package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bitmapfilter/internal/capture"
	"bitmapfilter/internal/checkpoint"
	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/resilience"
)

// TestDrainOnSignal: a cancelled context (the SIGTERM path) must stop
// intake, drain the pump, take the final checkpoint, and exit cleanly —
// long before the replay would have finished on its own.
func TestDrainOnSignal(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "state.bmf")
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // signal already pending: drain immediately

	var out bytes.Buffer
	err := run(ctx, []string{
		"-loops", "200000", // far more work than the drain window allows
		"-scan-pps", "2000", "-conn-rate", "10", "-gen-duration", "100ms",
		"-checkpoint", ckpt,
	}, &out)
	if err != nil {
		t.Fatalf("drain returned error: %v\noutput:\n%s", err, out.String())
	}
	for _, want := range []string{"signal received, draining", "final checkpoint saved"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Errorf("final checkpoint not on disk: %v", err)
	}
}

// TestCheckpointRoundTrip: a completed run persists its filter state and
// the next boot restores it instead of cold-starting.
func TestCheckpointRoundTrip(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "state.bmf")
	args := []string{
		"-bench", "-target", "1",
		"-scan-pps", "2000", "-conn-rate", "10", "-gen-duration", "100ms",
		"-checkpoint", ckpt,
	}

	var first bytes.Buffer
	if err := run(context.Background(), args, &first); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(first.String(), "cold start") {
		t.Errorf("first boot should cold-start:\n%s", first.String())
	}

	var second bytes.Buffer
	if err := run(context.Background(), args, &second); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(second.String(), "restored filter state from") {
		t.Errorf("second boot should restore:\n%s", second.String())
	}
}

// TestCheckpointRoundTripTenants pins the fleet path: per-tenant state
// (including the forced goroutine-safe flavor) survives the snapshot.
func TestCheckpointRoundTripTenants(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "fleet.bmf")
	args := []string{
		"-bench", "-target", "1", "-tenants", writeFleet(t, dir, fleetJSON),
		"-scan-pps", "2000", "-conn-rate", "10", "-gen-duration", "100ms",
		"-checkpoint", ckpt,
	}
	var first, second bytes.Buffer
	if err := run(context.Background(), args, &first); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), args, &second); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(second.String(), "restored filter state from") {
		t.Errorf("fleet second boot should restore:\n%s", second.String())
	}
}

// TestOverloadPolicyFlag: the policy flag parses strictly and an
// admit-policy run completes end to end with a tiny queue.
func TestOverloadPolicyFlag(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"-on-overload", "bogus"}, &out)
	if err == nil || !strings.Contains(err.Error(), "overload") {
		t.Errorf("bogus policy: err = %v", err)
	}

	out.Reset()
	err = run(context.Background(), []string{
		"-bench", "-target", "1", "-on-overload", "admit", "-queue", "16",
		"-scan-pps", "2000", "-conn-rate", "10", "-gen-duration", "100ms",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "bfwall bench:") {
		t.Errorf("output: %s", out.String())
	}
}

// panicFilter wraps a real filter and panics on the Nth batch — the
// stand-in for a decode- or filter-path bug the pump must contain.
type panicFilter struct {
	filtering.BatchFilter
	calls   atomic.Int64
	panicOn int64
}

func (p *panicFilter) ProcessBatchInto(pkts []packet.Packet, out []filtering.Verdict) []filtering.Verdict {
	if p.calls.Add(1) == p.panicOn {
		panic("injected filter fault")
	}
	return p.BatchFilter.ProcessBatchInto(pkts, out)
}

// TestPumpQuarantinesPanic: a panicking batch is counted and skipped,
// and the pump keeps judging subsequent batches — three batches of two
// frames with one worker, three of minSubBatch (the claim floor) with two.
func TestPumpQuarantinesPanic(t *testing.T) {
	client := packet.AddrFrom4(10, 0, 0, 5)
	server := packet.AddrFrom4(198, 51, 100, 7)
	frame := encodeFrame(t, packet.Packet{Time: time.Second,
		Tuple: packet.Tuple{Src: client, Dst: server, SrcPort: 4000, DstPort: 80, Proto: packet.TCP},
		Dir:   packet.Outgoing, Flags: packet.SYN, Length: 60})
	subnets, _ := parseSubnets("10.0.0.0/8")

	for workers, batch := range map[int]uint64{1: 2, 2: minSubBatch} {
		t.Run(fmt.Sprintf("W=%d", workers), func(t *testing.T) {
			lb := capture.NewLoopback()
			for i := uint64(0); i < 3*batch; i++ {
				if err := lb.WriteFrame(capture.Frame{Time: time.Duration(i+1) * time.Millisecond, Data: frame}); err != nil {
					t.Fatal(err)
				}
			}
			if err := lb.Close(); err != nil {
				t.Fatal(err)
			}

			stats := newWallStats(time.Now())
			bf := &panicFilter{BatchFilter: mustFilter(t), panicOn: 1}
			p := newPump(lb, bf, subnets, 2, workers, stats)
			var logged atomic.Int64
			p.logf = func(string, ...any) { logged.Add(1) }

			if err := p.run(); err != nil {
				t.Fatalf("pump died on a contained panic: %v", err)
			}
			if got := stats.quarantinedBatches.Load(); got != 1 {
				t.Errorf("quarantined batches = %d, want 1", got)
			}
			if got := stats.quarantinedFrames.Load(); got != batch {
				t.Errorf("quarantined frames = %d, want %d", got, batch)
			}
			// The two healthy batches were judged.
			if got := stats.frames.Load(); got != 3*batch {
				t.Errorf("frames = %d, want %d", got, 3*batch)
			}
			if got := stats.outgoing.Load(); got != 2*batch {
				t.Errorf("outgoing = %d, want %d (quarantined batch never judged)", got, 2*batch)
			}
			if logged.Load() != 1 {
				t.Errorf("quarantine logged %d times, want 1", logged.Load())
			}
		})
	}
}

// TestResilienceEndpoints wires a live resilience plane behind the mux
// and checks /readyz, the stalled /healthz, and every
// bitmapfilter_resilience_* series group on /metrics.
func TestResilienceEndpoints(t *testing.T) {
	// A fake clock so the stall is deterministic.
	var clock atomic.Int64
	wd := resilience.NewWatchdog(func() time.Duration { return time.Duration(clock.Load()) })
	probe := wd.Heartbeat("capture", 100*time.Millisecond)
	probe.Beat()
	health := resilience.NewHealth(wd)

	lb := capture.NewLoopback()
	sup, err := resilience.NewSupervisor(resilience.SupervisorConfig{
		Open: func() (capture.Source, error) { return lb, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	buf := resilience.NewBuffer(sup, resilience.BufferConfig{Capacity: 8, SnapLen: 256})
	defer buf.Close()

	cp, err := checkpoint.New(checkpoint.Config{
		Path:  filepath.Join(t.TempDir(), "state.bmf"),
		Write: func(io.Writer) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}

	stats := newWallStats(time.Now())
	stats.quarantinedBatches.Add(2)
	stats.quarantinedFrames.Add(7)
	plane := &resiliencePlane{
		sup:     sup,
		buf:     buf,
		health:  health,
		cp:      cp,
		restore: checkpoint.RestoreResult{Outcome: checkpoint.OutcomeColdStartEmpty},
		policy:  resilience.PolicyDrop,
		stats:   stats,
	}
	srv := httptest.NewServer(newMux(stats, mustFilter(t), plane))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	// Starting: live but not ready.
	if code, _ := get("/healthz"); code != 200 {
		t.Errorf("/healthz while starting = %d", code)
	}
	if code, body := get("/readyz"); code != 503 || !strings.Contains(body, "starting") {
		t.Errorf("/readyz while starting = %d %q", code, body)
	}

	health.SetReady()
	if code, _ := get("/readyz"); code != 200 {
		t.Errorf("/readyz when ready = %d", code)
	}

	code, metrics := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"bitmapfilter_resilience_source_transient_errors_total 0",
		"bitmapfilter_resilience_source_reopens_total 0",
		"bitmapfilter_resilience_backoff_seconds_total 0",
		"bitmapfilter_resilience_queue_capacity 8",
		`bitmapfilter_resilience_shed_frames_total{policy="drop"} 0`,
		"bitmapfilter_resilience_shedding 0",
		"bitmapfilter_resilience_quarantined_batches_total 2",
		`bitmapfilter_resilience_quarantined_frames_total{policy="drop"} 7`,
		"bitmapfilter_resilience_live 1",
		"bitmapfilter_resilience_ready 1",
		`bitmapfilter_resilience_state{state="ready"} 1`,
		`bitmapfilter_resilience_state{state="draining"} 0`,
		`bitmapfilter_resilience_probe_beats_total{probe="capture"} 1`,
		`bitmapfilter_resilience_probe_stalled{probe="capture"} 0`,
		"bitmapfilter_resilience_checkpoint_successes_total 0",
		`bitmapfilter_resilience_restore_outcome{outcome="cold-start-empty"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Stall the capture probe: liveness flips, the stalled gauge rises.
	clock.Store(int64(time.Second))
	if code, body := get("/healthz"); code != 503 || !strings.Contains(body, "capture stalled") {
		t.Errorf("/healthz while stalled = %d %q", code, body)
	}
	if _, metrics := get("/metrics"); !strings.Contains(metrics,
		`bitmapfilter_resilience_probe_stalled{probe="capture"} 1`) {
		t.Error("/metrics stalled gauge did not rise")
	}

	// Draining: live again (fresh beat), but not ready.
	probe.Beat()
	health.SetDraining()
	if code, _ := get("/healthz"); code != 200 {
		t.Errorf("/healthz while draining = %d", code)
	}
	if code, body := get("/readyz"); code != 503 || !strings.Contains(body, "draining") {
		t.Errorf("/readyz while draining = %d %q", code, body)
	}
}
