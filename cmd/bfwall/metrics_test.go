package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bitmapfilter/internal/capture"
	"bitmapfilter/internal/checkpoint"
	"bitmapfilter/internal/httpapi/expotest"
	"bitmapfilter/internal/pump"
	"bitmapfilter/internal/resilience"
)

// samples returns the lines of a scrape that are not comments.
func samples(scrape string) (lines []string) {
	for _, line := range strings.Split(strings.TrimSuffix(scrape, "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			lines = append(lines, line)
		}
	}
	return lines
}

// TestMetricsSamplesPreserved: for a fixed snapshot and plane every sample
// line the hand-written renderer wrote before httpapi.Expo — name, labels,
// number format; testdata/metrics_parent.txt was captured from it — is still
// on /metrics, but for the checkpointer, which now goes by the names bfserve
// always gave it; and nothing is new but that family. Sets, not sequences:
// the probes' samples used to interleave three families, against the format.
func TestMetricsSamplesPreserved(t *testing.T) {
	renamed := strings.NewReplacer(
		"bitmapfilter_resilience_checkpoint_successes_total", "bitmapfilter_checkpoint_success_total",
		"bitmapfilter_resilience_checkpoint_failures_total", "bitmapfilter_checkpoint_failures_total",
		"bitmapfilter_resilience_restore_outcome", "bitmapfilter_checkpoint_restore_outcome")
	gained := []string{ // the rest of bfserve's family, and the rungs that are 0
		"bitmapfilter_checkpoint_enabled 1",
		"bitmapfilter_checkpoint_attempts_total 0",
		"bitmapfilter_checkpoint_last_success_age_seconds -1",
		"bitmapfilter_checkpoint_last_size_bytes 0",
		`bitmapfilter_checkpoint_restore_outcome{outcome="primary"} 0`,
		`bitmapfilter_checkpoint_restore_outcome{outcome="backup"} 0`,
		`bitmapfilter_checkpoint_restore_outcome{outcome="cold-start-empty"} 0`,
	}

	snap := pump.Snapshot{
		Frames: 3000000, Bytes: 1 << 31, Truncated: 4, Unrouted: 5,
		Outgoing: 1999995, Incoming: 1000000, Passed: 999000, Dropped: 1000,
		QuarantinedBatches: 2, QuarantinedFrames: 1024,
		LatencyP50: 1500 * time.Nanosecond, LatencyP99: 2 * time.Millisecond,
		Workers: 2, ForeignCommits: 77, BufferWaits: 3,
		CommitBusy: 1234567 * time.Microsecond, SourceBusy: 25 * time.Nanosecond,
		Lanes:        []pump.LaneSnapshot{{Frames: 1500000, Batches: 3000, QueueDepth: 7, Stalls: 1}, {Frames: 1499995, Batches: 2999}},
		FilterMemory: 1 << 20,
	}
	for i := range snap.DecodeErrors {
		snap.DecodeErrors[i] = uint64(i)
	}
	var clock atomic.Int64
	wd := resilience.NewWatchdog(func() time.Duration { return time.Duration(clock.Load()) })
	wd.Heartbeat("capture", 100*time.Millisecond).Beat()
	wd.Heartbeat("lane0", time.Minute)
	clock.Store(int64(1500 * time.Millisecond))
	health := resilience.NewHealth(wd)
	health.SetDraining()
	sup, err := resilience.NewSupervisor(resilience.SupervisorConfig{
		Open: func() (capture.Source, error) { return capture.NewLoopback(), nil },
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
	plane := &resiliencePlane{sup: sup, buf: buf, health: health, cp: cp, policy: resilience.PolicyAdmit,
		restore: checkpoint.RestoreResult{Outcome: checkpoint.OutcomeColdStartCorrupt}}

	// A zero start makes bfwall_pps a constant: time.Since saturates.
	rec := httptest.NewRecorder()
	newMux(time.Time{}, func() pump.Snapshot { return snap }, plane).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	got := make(map[string]bool)
	for _, line := range samples(rec.Body.String()) {
		got[line] = true
	}
	golden, err := os.ReadFile("testdata/metrics_parent.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range append(strings.Split(strings.TrimSuffix(renamed.Replace(string(golden)), "\n"), "\n"), gained...) {
		if !got[line] {
			t.Errorf("/metrics lost %q", line)
		}
		delete(got, line)
	}
	for line := range got {
		t.Errorf("/metrics gained %q", line)
	}
}

// TestMetricsContract runs the daemon — a single filter, two shards, a
// fleet; overload queue, checkpointer and watchdog on — and scrapes it while
// the pump judges: whatever /metrics says then keeps the exposition contract,
// and the families of the three runs together are, name by name and kind by
// kind, bfwall's rows of DESIGN.md §8.
func TestMetricsContract(t *testing.T) {
	emitted := make(map[string]string)
	for name, args := range map[string][]string{
		"single": nil,
		"shards": {"-shards", "2"},
		"fleet":  {"-tenants", writeFleet(t, t.TempDir(), fleetJSON)},
	} {
		// A port nobody holds: the daemon prints the address it was told, not
		// the one it bound.
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := l.Addr().String()
		l.Close()
		ctx, cancel := context.WithCancel(context.Background())
		var out bytes.Buffer
		done := make(chan error, 1)
		go func() {
			done <- run(ctx, append(args, "-listen", addr, "-loops", "1000000",
				"-scan-pps", "20000", "-conn-rate", "50", "-gen-duration", "100ms", "-queue", "64",
				"-checkpoint", filepath.Join(t.TempDir(), "state.bmf"), "-checkpoint-every", "20ms"), &out)
		}()
		scrapes := 0
		for deadline := time.Now().Add(30 * time.Second); scrapes < 20 && time.Now().Before(deadline); {
			resp, err := http.Get("http://" + addr + "/metrics")
			if err != nil {
				time.Sleep(5 * time.Millisecond) // not listening yet
				continue
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != 200 {
				t.Fatalf("%s: GET /metrics: %d %v", name, resp.StatusCode, err)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
				t.Errorf("%s: Content-Type %q", name, ct)
			}
			kinds, problems := expotest.Check(string(body))
			for _, p := range problems {
				t.Errorf("%s: %s", name, p)
			}
			for family, kind := range kinds {
				emitted[family] = kind
			}
			scrapes++
		}
		cancel()
		if err := <-done; err != nil {
			t.Fatalf("%s: %v\n%s", name, err, out.String())
		}
		if scrapes == 0 {
			t.Fatalf("%s: never scraped\n%s", name, out.String())
		}
	}
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range expotest.Diff(emitted, string(design), "bfwall") {
		t.Error(p)
	}
}
