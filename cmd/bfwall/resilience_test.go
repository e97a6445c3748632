package main

import (
	"bytes"
	"context"
	"encoding/binary"
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
	"bitmapfilter/internal/core"
	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/pump"
	"bitmapfilter/internal/resilience"
	"bitmapfilter/internal/tenant"
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

// TestCheckpointEveryZeroRefused: -checkpoint-every 0 is an error at
// startup, before the pump runs: the checkpoint probe is sized from the
// flag, so any interval the checkpointer chose in its place would stall it.
func TestCheckpointEveryZeroRefused(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "state.bmf")
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-bench", "-target", "1", "-gen-duration", "10ms",
		"-checkpoint", ckpt, "-checkpoint-every", "0",
	}, &out)
	if err == nil || !strings.Contains(err.Error(), "interval") {
		t.Fatalf("-checkpoint-every 0: %v, want an interval error", err)
	}
	if strings.Contains(out.String(), "bfwall bench:") {
		t.Errorf("the pump ran with -checkpoint-every 0:\n%s", out.String())
	}
	if _, err := os.Stat(ckpt); err == nil {
		t.Error("a checkpoint was written with -checkpoint-every 0")
	}
}

// TestCheckpointRoundTripTenants pins the fleet path: per-tenant state — of
// bare tenants, which the Set's lock keeps the checkpointer off a batch in
// flight — survives the snapshot.
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

// TestOverloadShedsUnjudged: a replay through a tiny -queue overflows it —
// the intake pushes 256 frames at a time into 16 slots — and every frame of
// the trace is then either judged or counted shed, never both: bfwall
// forwards nothing, so a shed frame has no verdict to default to.
func TestOverloadShedsUnjudged(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-queue", "16", "-scan-pps", "2000", "-conn-rate", "10", "-gen-duration", "200ms",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var synthesized, frames, shed uint64
	for _, line := range strings.Split(out.String(), "\n") {
		fmt.Sscanf(line, "bfwall: synthesized %d frames", &synthesized)
		fmt.Sscanf(line, "bfwall: %d frames, ", &frames)
		fmt.Sscanf(line, "bfwall: shed %d frames under overload", &shed)
		if strings.HasPrefix(line, "bfwall: shed") && line != fmt.Sprintf("bfwall: shed %d frames under overload", shed) {
			t.Errorf("shed line %q", line)
		}
	}
	if shed == 0 || frames == 0 || frames+shed != synthesized {
		t.Errorf("%d frames synthesized, %d judged, %d shed:\n%s", synthesized, frames, shed, out.String())
	}
}

// TestDamagedTraceJudgesGoodPrefix: a record whose length is garbage ends a
// replay's walk — where the next record starts is what the length leaves
// unknown — so bfwall judges the records before it, counts one transient
// source error, reopens nothing, and exits 0, whether the damage falls
// inside a read or on its boundary.
func TestDamagedTraceJudgesGoodPrefix(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "scan.pcap")
	if err := run(context.Background(), []string{"-gen", trace, "-scan-pps", "20000", "-conn-rate", "10", "-gen-duration", "100ms"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	for _, good := range []int{1000, 2 * readBatch} {
		t.Run(fmt.Sprint(good), func(t *testing.T) {
			// Record good+1's captured length, 16 bytes of header per record
			// after the 24 of the file's.
			data := bytes.Clone(clean)
			off := 24
			for i := 0; i < good; i++ {
				off += 16 + int(binary.LittleEndian.Uint32(data[off+8:]))
			}
			binary.LittleEndian.PutUint32(data[off+8:], 0x7fffffff)
			damaged := filepath.Join(t.TempDir(), "damaged.pcap")
			if err := os.WriteFile(damaged, data, 0o644); err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if err := run(context.Background(), []string{"-pcap", damaged}, &out); err != nil {
				t.Fatalf("exit: %v\n%s", err, out.String())
			}
			for _, want := range []string{
				fmt.Sprintf("bfwall: %d frames, ", good),
				"bfwall: survived 1 transient source errors (0 reopens)\n",
			} {
				if !strings.Contains(out.String(), want) {
					t.Errorf("output lacks %q:\n%s", want, out.String())
				}
			}
		})
	}
}

// TestPumpQuarantinesPanic: a panicking batch is counted and skipped,
// and the pump keeps judging subsequent batches — three batches of two
// frames with one worker, three of minBatch (the floor) with two.
func TestPumpQuarantinesPanic(t *testing.T) {
	client := packet.AddrFrom4(10, 0, 0, 5)
	server := packet.AddrFrom4(198, 51, 100, 7)
	frame := encodeFrame(t, packet.Packet{Time: time.Second,
		Tuple: packet.Tuple{Src: client, Dst: server, SrcPort: 4000, DstPort: 80, Proto: packet.TCP},
		Dir:   packet.Outgoing, Flags: packet.SYN, Length: 60})
	subnets, _ := parseSubnets("10.0.0.0/8")

	for workers, batch := range map[int]uint64{1: 2, 2: minBatch} {
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

			bf := &faultyFilter{statFilter: singleFilter(t), fault: panicOn(1)}
			var logged atomic.Int64
			p := pump.New(pump.Config{Source: lb, Filter: bf, Subnets: subnets, Batch: 2, Workers: workers,
				Logf: func(string, ...any) { logged.Add(1) }})
			if err := p.Run(); err != nil {
				t.Fatalf("pump died on a contained panic: %v", err)
			}
			got := p.Snapshot()
			if got.QuarantinedBatches != 1 {
				t.Errorf("quarantined batches = %d, want 1", got.QuarantinedBatches)
			}
			if got.QuarantinedFrames != batch {
				t.Errorf("quarantined frames = %d, want %d", got.QuarantinedFrames, batch)
			}
			// The two healthy batches were judged.
			if got.Frames != 3*batch {
				t.Errorf("frames = %d, want %d", got.Frames, 3*batch)
			}
			if got.Outgoing != 2*batch {
				t.Errorf("outgoing = %d, want %d (quarantined batch never judged)", got.Outgoing, 2*batch)
			}
			if logged.Load() != 1 {
				t.Errorf("quarantine logged %d times, want 1", logged.Load())
			}
		})
	}
}

// TestResilienceEndpoints wires a live resilience plane behind the mux
// and checks /readyz, the stalled /healthz, and every
// bitmapfilter_resilience_* series group and the checkpointer's on /metrics.
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
		Path:     filepath.Join(t.TempDir(), "state.bmf"),
		Write:    func(io.Writer) error { return nil },
		Interval: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	snap := pump.Snapshot{QuarantinedBatches: 2, QuarantinedFrames: 7}
	plane := &controlPlane{
		sup:     sup,
		buf:     buf,
		health:  health,
		cp:      cp,
		restore: checkpoint.RestoreResult{Outcome: checkpoint.OutcomeColdStartEmpty},
	}
	srv := httptest.NewServer(newMux(time.Now(), func() pump.Snapshot { return snap }, plane))
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
		"bitmapfilter_resilience_shed_frames_total 0",
		"bitmapfilter_resilience_shedding 0",
		"bitmapfilter_resilience_quarantined_batches_total 2",
		"bitmapfilter_resilience_quarantined_frames_total 7",
		"bitmapfilter_resilience_live 1",
		"bitmapfilter_resilience_ready 1",
		`bitmapfilter_resilience_state{state="ready"} 1`,
		`bitmapfilter_resilience_state{state="draining"} 0`,
		`bitmapfilter_resilience_probe_beats_total{probe="capture"} 1`,
		`bitmapfilter_resilience_probe_stalled{probe="capture"} 0`,
		"bitmapfilter_checkpoint_enabled 1",
		"bitmapfilter_checkpoint_success_total 0",
		// One-hot over the whole ladder: a rung that is absent, not 0, is
		// one no alert on {outcome="primary"} == 0 can fire for.
		`bitmapfilter_checkpoint_restore_outcome{outcome="primary"} 0`,
		`bitmapfilter_checkpoint_restore_outcome{outcome="backup"} 0`,
		`bitmapfilter_checkpoint_restore_outcome{outcome="cold-start-empty"} 1`,
		`bitmapfilter_checkpoint_restore_outcome{outcome="cold-start-corrupt"} 0`,
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

// drainOnSignal is the daemon-level drain: it runs bfwall over an endless
// replay with args and a checkpoint, sends SIGTERM (cancels) in the middle
// of it, and checks that every frame read was judged and that the final
// checkpoint — read back through counters — restores to the counters the
// exit line reports. The signal is sent once a periodic checkpoint holds a
// judged packet, however long start-up took: a timer measured from the
// test's start can fire before the pump's first read.
func drainOnSignal(t *testing.T, counters func(io.Reader) (filtering.Counters, error), args ...string) {
	t.Helper()
	ckpt := filepath.Join(t.TempDir(), "state.bmf")
	read := func() (filtering.Counters, error) {
		f, err := os.Open(ckpt)
		if err != nil {
			return filtering.Counters{}, err
		}
		defer f.Close()
		return counters(f)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // also stops the poller, should run fail before it signals
	judged := make(chan bool, 1)
	go func() {
		defer cancel()
		for deadline := time.Now().Add(30 * time.Second); ctx.Err() == nil && time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
			if c, err := read(); err == nil && c.OutPackets+c.InPackets > 0 {
				judged <- true
				return
			}
		}
		judged <- false
	}()

	var out bytes.Buffer
	err := run(ctx, append(args, "-loops", "1000000",
		"-scan-pps", "20000", "-conn-rate", "50", "-gen-duration", "100ms",
		"-checkpoint", ckpt, "-checkpoint-every", "20ms"), &out)
	if err != nil {
		t.Fatalf("drain returned error: %v\noutput:\n%s", err, out.String())
	}
	if !<-judged {
		t.Fatalf("no periodic checkpoint with a judged packet in 30 s:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "final checkpoint saved") {
		t.Fatalf("no final checkpoint:\n%s", out.String())
	}
	var exit string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, " frames, ") {
			exit = line
		}
	}
	var frames, outgoing, incoming, passed, dropped, decErrs uint64
	if _, err := fmt.Sscanf(exit, "bfwall: %d frames, %d out / %d in (%d passed, %d dropped), %d decode errors",
		&frames, &outgoing, &incoming, &passed, &dropped, &decErrs); err != nil {
		t.Fatalf("exit line %q: %v\n%s", exit, err, out.String())
	}
	if frames == 0 || frames != outgoing+incoming || incoming != passed+dropped || decErrs != 0 {
		t.Errorf("frames read and frames judged differ: %s", exit)
	}
	c, err := read()
	if err != nil {
		t.Fatal(err)
	}
	if c.OutPackets != outgoing || c.InPackets != incoming || c.InPassed != passed {
		t.Errorf("checkpoint holds %+v, the daemon reported %s", c, exit)
	}
}

func filterCounters(r io.Reader) (filtering.Counters, error) {
	f, err := core.ReadAnySnapshot(r)
	if err != nil {
		return filtering.Counters{}, err
	}
	return f.Counters(), nil
}

// TestWorkerDrainOnSignal is the daemon-level drain over a single filter:
// SIGTERM in the middle of a replay, W = min(GOMAXPROCS, 4) — run it with
// -cpu 1,2,4. The final checkpoint is taken after Run returned — workers
// joined, reorder ring empty — so the counters it restores to are the ones
// the exit line reports. -queue 0: the workers read the supervised replay
// itself, the path -bench times (TestWorkerBackPressure has the queue).
func TestWorkerDrainOnSignal(t *testing.T) {
	drainOnSignal(t, filterCounters, "-queue", "0")
}

// TestShardsDrainOnSignal: SIGTERM in the middle of a replay over two shards.
// The final checkpoint is taken after every batch read has been judged.
func TestShardsDrainOnSignal(t *testing.T) {
	drainOnSignal(t, filterCounters, "-shards", "2")
}

const fleetJSON = `{"tenants":[
	{"id":"a","prefix":"10.0.0.0/9","order":12},
	{"id":"b","prefix":"10.128.0.0/9","order":12}
]}`

func writeFleet(t *testing.T, dir, doc string) string {
	t.Helper()
	path := filepath.Join(dir, "fleet.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestFleetDrainOnSignal is TestShardsDrainOnSignal for a fleet.
func TestFleetDrainOnSignal(t *testing.T) {
	drainOnSignal(t, func(r io.Reader) (filtering.Counters, error) {
		set, err := tenant.ReadSnapshot(r, nil)
		if err != nil {
			return filtering.Counters{}, err
		}
		return set.Counters(), nil
	}, "-tenants", writeFleet(t, t.TempDir(), fleetJSON))
}

// TestCheckpointRefusesFleetThatDiffersFromConfig: a checkpoint restores
// the fleet it was taken from, so a config edited since — a tenant added,
// dropped or re-prefixed — no longer describes what would run. The daemon
// refuses to start and says why; listing the same tenants in another order
// is not a difference.
func TestCheckpointRefusesFleetThatDiffersFromConfig(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "fleet.bmf")
	boot := func(doc string) (string, error) {
		var out bytes.Buffer
		err := run(context.Background(), []string{
			"-bench", "-target", "1", "-tenants", writeFleet(t, dir, doc),
			"-scan-pps", "2000", "-conn-rate", "10", "-gen-duration", "100ms",
			"-checkpoint", ckpt,
		}, &out)
		return out.String(), err
	}
	if out, err := boot(fleetJSON); err != nil || !strings.Contains(out, "cold start") {
		t.Fatalf("first boot: %v\n%s", err, out)
	}
	for name, tc := range map[string]struct{ doc, want string }{
		"added tenant": {`{"tenants":[
			{"id":"a","prefix":"10.0.0.0/9","order":12},
			{"id":"b","prefix":"10.128.0.0/9","order":12},
			{"id":"c","prefix":"11.0.0.0/8","order":12}]}`,
			`tenant "c" (11.0.0.0/8) is configured but not in the running fleet`},
		"removed tenant": {`{"tenants":[
			{"id":"a","prefix":"10.0.0.0/9","order":12}]}`,
			`tenant "b" (10.128.0.0/9) is in the running fleet but not configured`},
		"changed prefix": {`{"tenants":[
			{"id":"a","prefix":"10.0.0.0/9","order":12},
			{"id":"b","prefix":"10.128.0.0/10","order":12}]}`,
			`tenant "b" is configured with prefix 10.128.0.0/10 but runs with 10.128.0.0/9`},
	} {
		out, err := boot(tc.doc)
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), ckpt) {
			t.Errorf("%s: err = %v, want a refusal naming the checkpoint and %q\n%s", name, err, tc.want, out)
		}
	}
	out, err := boot(`{"tenants":[
		{"id":"b","prefix":"10.128.0.0/9","order":12},
		{"id":"a","prefix":"10.0.0.0/9","order":12}]}`)
	if err != nil || !strings.Contains(out, "restored filter state from") {
		t.Errorf("the same fleet listed in another order should restore: %v\n%s", err, out)
	}
}
