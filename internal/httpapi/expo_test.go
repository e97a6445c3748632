package httpapi

import (
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bitmapfilter/internal/checkpoint"
	"bitmapfilter/internal/core"
	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/httpapi/expotest"
	"bitmapfilter/internal/live"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/resilience"
	"bitmapfilter/internal/tenant"
)

// fixedFilter serves canned stats through every introspection extension.
type fixedFilter struct {
	stats   core.Stats
	shards  []core.Stats
	tenants []tenant.Stat
}

func (f fixedFilter) Stats() core.Stats                                      { return f.stats }
func (f fixedFilter) ShardStats() []core.Stats                               { return f.shards }
func (f fixedFilter) TenantStats() []tenant.Stat                             { return f.tenants }
func (f fixedFilter) UnroutedPackets() uint64                                { return 9 }
func (fixedFilter) PunchHole(packet.Addr, uint16, packet.Addr, packet.Proto) {}

func scrape(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type %q", ct)
	}
	return rec.Body.String()
}

// samples returns the lines of a scrape that are not comments.
func samples(scrape string) (lines []string) {
	for _, line := range strings.Split(strings.TrimSuffix(scrape, "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			lines = append(lines, line)
		}
	}
	return lines
}

// TestMetricsSamplesPreserved: for fixed stats every sample line of /metrics
// — name, labels, number format, order — is the one the hand-written
// renderer wrote before Expo (testdata/metrics_parent.txt was captured from
// it). A million-byte bitmap pins the %g gauges: 1.048576e+06, as it was.
func TestMetricsSamplesPreserved(t *testing.T) {
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
	var clock atomic.Int64
	wd := resilience.NewWatchdog(func() time.Duration { return time.Duration(clock.Load()) })
	wd.Heartbeat("capture", 100*time.Millisecond).Beat()
	wd.Heartbeat("checkpoint", time.Minute)
	clock.Store(int64(1500 * time.Millisecond))
	health := resilience.NewHealth(wd)
	health.SetReady()

	api, err := New(
		fixedFilter{stats: one, shards: []core.Stats{one, other},
			tenants: []tenant.Stat{{ID: "a", Prefix: prefix("10.0.0.0/9"), Stats: one}, {ID: `b"c`, Prefix: prefix("10.128.0.0/9"), Stats: other}}},
		WithHealth(health),
		WithCheckpointer(&fakeCheckpointer{stats: checkpoint.Stats{Attempts: 5, Successes: 3, Failures: 2, LastBytes: 1 << 20}},
			checkpoint.RestoreResult{Outcome: checkpoint.OutcomeBackup}))
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/metrics_parent.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(samples(scrape(t, api)), "\n") + "\n"
	if got != string(golden) {
		t.Errorf("sample lines differ from the parent's.\ngot:\n%s\nwant:\n%s", got, golden)
	}
}

// TestMetricsContract scrapes the two shapes bfserve serves — a sharded
// filter and a tenant fleet behind the wall-clock adapter, health and
// checkpointer wired — and holds what they emit to the exposition contract
// and, name by name and kind by kind, to bfserve's rows of DESIGN.md §8.
func TestMetricsContract(t *testing.T) {
	sharded, err := core.NewSharded(2, core.WithOrder(12))
	if err != nil {
		t.Fatal(err)
	}
	prefix, err := packet.ParsePrefix("10.0.0.0/8")
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := tenant.NewSet(tenant.SetConfig{Tenants: []tenant.Config{{ID: "a", Prefix: prefix, Options: []core.Option{core.WithOrder(12)}}}})
	if err != nil {
		t.Fatal(err)
	}
	wd := resilience.NewWatchdog(nil)
	wd.Heartbeat("demo", time.Minute)
	emitted := make(map[string]string)
	for name, inner := range map[string]live.Inner{"sharded": sharded, "fleet": fleet} {
		lf, err := live.New(inner)
		if err != nil {
			t.Fatal(err)
		}
		api, err := New(lf, WithHealth(resilience.NewHealth(wd)), WithCheckpointer(&fakeCheckpointer{}, checkpoint.RestoreResult{}))
		if err != nil {
			t.Fatal(err)
		}
		kinds, problems := expotest.Check(scrape(t, api))
		for _, p := range problems {
			t.Errorf("%s: %s", name, p)
		}
		for family, kind := range kinds {
			emitted[family] = kind
		}
	}
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range expotest.Diff(emitted, string(design), "bfserve") {
		t.Error(p)
	}
}
