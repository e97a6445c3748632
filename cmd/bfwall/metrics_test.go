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
	"bitmapfilter/internal/core"
	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/httpapi/expotest"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/pump"
	"bitmapfilter/internal/resilience"
	"bitmapfilter/internal/tenant"
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
// on /metrics, but for the checkpointer, which now goes by the names of the
// checkpoint family httpapi writes, the shed and quarantined frames,
// which lost the label of an overload policy that changed nothing, and the
// series labelled by lane, which went with the lanes the pump no longer
// runs; and nothing else is new but that family,
// the pump's stage clocks, and the bitmap's own series. Those are, line for
// line and in order, what the retired second daemon wrote for the same
// stats (testdata/metrics_bitmap_parent.txt, captured from it), less its
// five series that bfwall counts under its own names and the health and
// checkpoint sections, which are bfwall's above. Sets, not sequences, for
// the rest: the probes' samples used to interleave three families, against
// the format.
func TestMetricsSamplesPreserved(t *testing.T) {
	renamed := strings.NewReplacer(
		"bitmapfilter_resilience_checkpoint_successes_total", "bitmapfilter_checkpoint_success_total",
		"bitmapfilter_resilience_checkpoint_failures_total", "bitmapfilter_checkpoint_failures_total",
		"bitmapfilter_resilience_restore_outcome", "bitmapfilter_checkpoint_restore_outcome",
		`_frames_total{policy="admit"}`, "_frames_total")
	gained := []string{ // the rest of the checkpoint family, and the rungs that are 0
		"bitmapfilter_checkpoint_enabled 1",
		"bitmapfilter_checkpoint_attempts_total 0",
		"bitmapfilter_checkpoint_last_success_age_seconds -1",
		"bitmapfilter_checkpoint_last_size_bytes 0",
		`bitmapfilter_checkpoint_restore_outcome{outcome="primary"} 0`,
		`bitmapfilter_checkpoint_restore_outcome{outcome="backup"} 0`,
		`bitmapfilter_checkpoint_restore_outcome{outcome="cold-start-empty"} 0`,
		// the stage clocks beside source and commit
		"bitmapfilter_pump_decode_busy_seconds_total 2.5",
		"bitmapfilter_pump_hash_busy_seconds_total 0",
	}

	snap := pump.Snapshot{
		Frames: 3000000, Bytes: 1 << 31, Truncated: 4, Unrouted: 5,
		Outgoing: 1999995, Incoming: 1000000, Passed: 999000, Dropped: 1000,
		QuarantinedBatches: 2, QuarantinedFrames: 1024,
		LatencyP50: 1500 * time.Nanosecond, LatencyP99: 2 * time.Millisecond,
		Workers: 2, ForeignCommits: 77, BufferWaits: 3,
		CommitBusy: 1234567 * time.Microsecond, SourceBusy: 25 * time.Nanosecond,
		DecodeBusy:   2500 * time.Millisecond,
		FilterMemory: 1 << 20,
	}
	for i := range snap.DecodeErrors {
		snap.DecodeErrors[i] = uint64(i)
	}
	var clock atomic.Int64
	wd := resilience.NewWatchdog(func() time.Duration { return time.Duration(clock.Load()) })
	wd.Heartbeat("capture", 100*time.Millisecond).Beat()
	wd.Heartbeat("lane0", time.Minute) // a probe of the pump the goldens were captured from
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
		Path:     filepath.Join(t.TempDir(), "state.bmf"),
		Write:    func(io.Writer) error { return nil },
		Interval: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	plane := &controlPlane{bf: capturedBitmap(t), sup: sup, buf: buf, health: health, cp: cp,
		restore: checkpoint.RestoreResult{Outcome: checkpoint.OutcomeColdStartCorrupt}}

	// A zero start makes bfwall_pps a constant: time.Since saturates.
	rec := httptest.NewRecorder()
	newMux(time.Time{}, func() pump.Snapshot { return snap }, plane).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	lines := samples(rec.Body.String())
	got := make(map[string]bool)
	for _, line := range lines {
		got[line] = true
	}
	for _, line := range append(goldenLines(t, "testdata/metrics_parent.txt", renamed.Replace), gained...) {
		if strings.Contains(line, `{lane="`) {
			if got[line] {
				t.Errorf("/metrics still has %q", line)
			}
			continue
		}
		if !got[line] {
			t.Errorf("/metrics lost %q", line)
		}
		delete(got, line)
	}
	var rest []string // in scrape order
	for _, line := range lines {
		if got[line] {
			rest = append(rest, line)
		}
	}
	var moved []string
	for _, line := range goldenLines(t, "testdata/metrics_bitmap_parent.txt", nil) {
		name, _, _ := strings.Cut(strings.Fields(line)[0], "{")
		if !strings.HasPrefix(name, "bitmapfilter_resilience_") && !strings.HasPrefix(name, "bitmapfilter_checkpoint_") && !countedByBfwall[name] {
			moved = append(moved, line)
		}
	}
	if strings.Join(rest, "\n") != strings.Join(moved, "\n") {
		t.Errorf("/metrics beside bfwall's own lines:\n%s\nwant the bitmap's, as captured:\n%s", strings.Join(rest, "\n"), strings.Join(moved, "\n"))
	}
}

// countedByBfwall are the series of the retired daemon that bfwall writes
// under its own names: bfwall_filter_memory_bytes, bfwall_packets_total,
// bfwall_verdicts_total{verdict="drop"} and bfwall_unrouted_packets_total.
var countedByBfwall = map[string]bool{
	"bitmapfilter_memory_bytes": true, "bitmapfilter_out_packets_total": true, "bitmapfilter_in_packets_total": true,
	"bitmapfilter_in_dropped_total": true, "bitmapfilter_unrouted_packets_total": true,
}

// goldenLines reads a captured scrape's sample lines, through edit if set.
func goldenLines(t *testing.T, path string, edit func(string) string) []string {
	t.Helper()
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := string(golden)
	if edit != nil {
		text = edit(text)
	}
	return strings.Split(strings.TrimSuffix(text, "\n"), "\n")
}

// fixedBitmap serves canned stats through the bitmap's extensions.
type fixedBitmap struct {
	stats   core.Stats
	shards  []core.Stats
	tenants []tenant.Stat
}

func (f fixedBitmap) Stats() core.Stats                                      { return f.stats }
func (f fixedBitmap) ShardStats() []core.Stats                               { return f.shards }
func (f fixedBitmap) TenantStats() []tenant.Stat                             { return f.tenants }
func (fixedBitmap) PunchHole(packet.Addr, uint16, packet.Addr, packet.Proto) {}

// capturedBitmap is the bitmap metrics_bitmap_parent.txt was captured for:
// an aggregate over two shards and two tenants (a million-byte bitmap pins
// the %g gauges: 1.048576e+06, as it was).
func capturedBitmap(t *testing.T) fixedBitmap {
	one := core.Stats{
		Order: 17, MemoryBytes: 1 << 20, CurrentIndex: 2, Rotations: 7, Marks: 1234567,
		VectorUtilization: []float64{0.5, 0.25, 0.125, 0}, Utilization: 0.125, PenetrationProbability: 0.001953125,
		Counters:  filtering.Counters{OutPackets: 3000000, InPackets: 2000000, InPassed: 1999000, InDropped: 1000},
		APDSpared: 12, APDEnabled: true, APDPolicy: "apd-ratio", APDDropProbability: 0.75,
	}
	other := one
	other.Utilization, other.APDDropProbability, other.APDSpared, other.Order, other.MemoryBytes = 1e-07, 0, 0, 12, 2048
	prefix := func(s string) packet.Prefix {
		p, err := packet.ParsePrefix(s)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	return fixedBitmap{stats: one, shards: []core.Stats{one, other},
		tenants: []tenant.Stat{{ID: "a", Prefix: prefix("10.0.0.0/9"), Stats: one}, {ID: `b"c`, Prefix: prefix("10.128.0.0/9"), Stats: other}}}
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
