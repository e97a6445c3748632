package httpapi

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bitmapfilter/internal/checkpoint"
	"bitmapfilter/internal/httpapi/expotest"
	"bitmapfilter/internal/resilience"
)

// sectionsServer serves the probes for health and, on GET /metrics, the
// health and checkpoint sections as a daemon's mux writes them: the
// checkpointer's counters are cs, nil without one.
func sectionsServer(t *testing.T, health *resilience.Health, cs *checkpoint.Stats, restore checkpoint.RestoreResult) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	MountProbes(mux, health)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		var e Expo
		WriteHealth(&e, health)
		writeCheckpoint(&e, cs, restore)
		e.Reply(w)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
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

func TestHealthz(t *testing.T) {
	srv := sectionsServer(t, nil, nil, checkpoint.RestoreResult{})
	if code, body := get(t, srv, "/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Errorf("/healthz = %d %q", code, body)
	}
}

// TestHealthEndpoints: /readyz tracks the lifecycle, /healthz flips 503 on
// a watchdog stall, and WriteHealth writes the bitmapfilter_resilience_*
// series.
func TestHealthEndpoints(t *testing.T) {
	var clock atomic.Int64
	wd := resilience.NewWatchdog(func() time.Duration { return time.Duration(clock.Load()) })
	probe := wd.Heartbeat("pump", 100*time.Millisecond)
	probe.Beat()
	health := resilience.NewHealth(wd)
	srv := sectionsServer(t, health, nil, checkpoint.RestoreResult{})

	// Starting: live, not ready.
	if code, _ := get(t, srv, "/healthz"); code != 200 {
		t.Errorf("/healthz while starting = %d", code)
	}
	if code, body := get(t, srv, "/readyz"); code != 503 || !strings.Contains(body, "starting") {
		t.Errorf("/readyz while starting = %d %q", code, body)
	}

	health.SetReady()
	if code, _ := get(t, srv, "/readyz"); code != 200 {
		t.Errorf("/readyz when ready = %d", code)
	}

	code, metrics := get(t, srv, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"bitmapfilter_resilience_live 1",
		"bitmapfilter_resilience_ready 1",
		`bitmapfilter_resilience_state{state="ready"} 1`,
		`bitmapfilter_resilience_state{state="starting"} 0`,
		`bitmapfilter_resilience_probe_beats_total{probe="pump"} 1`,
		`bitmapfilter_resilience_probe_stalled{probe="pump"} 0`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Stall the probe: liveness (and with it readiness) flips 503.
	clock.Store(int64(time.Second))
	if code, body := get(t, srv, "/healthz"); code != 503 || !strings.Contains(body, "pump stalled") {
		t.Errorf("/healthz while stalled = %d %q", code, body)
	}
	if code, _ := get(t, srv, "/readyz"); code != 503 {
		t.Errorf("/readyz while stalled = %d", code)
	}
	if _, m := get(t, srv, "/metrics"); !strings.Contains(m, "bitmapfilter_resilience_live 0") {
		t.Error("/metrics live gauge did not drop")
	}

	// Recover, then drain: live but not ready.
	probe.Beat()
	health.SetDraining()
	if code, _ := get(t, srv, "/healthz"); code != 200 {
		t.Errorf("/healthz while draining = %d", code)
	}
	if code, body := get(t, srv, "/readyz"); code != 503 || !strings.Contains(body, "draining") {
		t.Errorf("/readyz while draining = %d %q", code, body)
	}
}

// TestHealthzWithoutHealth: with no health both probes answer ok, and
// WriteHealth writes nothing.
func TestHealthzWithoutHealth(t *testing.T) {
	srv := sectionsServer(t, nil, nil, checkpoint.RestoreResult{})
	for _, path := range []string{"/healthz", "/readyz"} {
		if code, _ := get(t, srv, path); code != 200 {
			t.Errorf("%s without health = %d", path, code)
		}
	}
	if _, m := get(t, srv, "/metrics"); strings.Contains(m, "bitmapfilter_resilience_") {
		t.Errorf("/metrics without health:\n%s", m)
	}
}

// TestUnknownPath: MountProbes mounts its two paths and nothing else.
func TestUnknownPath(t *testing.T) {
	srv := sectionsServer(t, nil, nil, checkpoint.RestoreResult{})
	if code, _ := get(t, srv, "/nope"); code != http.StatusNotFound {
		t.Errorf("status = %d", code)
	}
}

func TestMetricsCheckpointSeries(t *testing.T) {
	cp := &checkpoint.Stats{
		Attempts: 3, Successes: 3, LastBytes: 512,
		LastSuccess: time.Now().Add(-2 * time.Second),
	}
	_, text := get(t, sectionsServer(t, nil, cp, checkpoint.RestoreResult{Outcome: checkpoint.OutcomePrimary, File: "/s.bmf"}), "/metrics")
	for _, want := range []string{
		"bitmapfilter_checkpoint_enabled 1",
		"bitmapfilter_checkpoint_attempts_total 3",
		"bitmapfilter_checkpoint_success_total 3",
		"bitmapfilter_checkpoint_failures_total 0",
		"bitmapfilter_checkpoint_last_size_bytes 512",
		`bitmapfilter_checkpoint_restore_outcome{outcome="primary"} 1`,
		`bitmapfilter_checkpoint_restore_outcome{outcome="backup"} 0`,
		`bitmapfilter_checkpoint_restore_outcome{outcome="cold-start-empty"} 0`,
		`bitmapfilter_checkpoint_restore_outcome{outcome="cold-start-corrupt"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if !strings.Contains(text, "bitmapfilter_checkpoint_last_success_age_seconds") {
		t.Error("metrics missing last-success age gauge")
	}

	// Without a checkpointer the enabled gauge reads 0 and no other
	// checkpoint series appear.
	var e Expo
	WriteCheckpoint(&e, nil, checkpoint.RestoreResult{})
	rec := httptest.NewRecorder()
	e.Reply(rec)
	plain := rec.Body.String()
	if !strings.Contains(plain, "bitmapfilter_checkpoint_enabled 0") {
		t.Error("disabled gauge missing")
	}
	if strings.Contains(plain, "bitmapfilter_checkpoint_attempts_total") {
		t.Error("checkpoint counters exported without a checkpointer")
	}
}

// scrape GETs /metrics and checks the exposition's content type.
func scrape(t *testing.T, srv *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("GET /metrics: %d %v", resp.StatusCode, err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type %q", ct)
	}
	return string(body)
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

// TestMetricsSamplesPreserved: for a fixed watchdog, health and checkpointer
// every sample line of the health and checkpoint sections — name, labels,
// number format, order — is the one the hand-written renderer wrote before
// Expo (testdata/sections_parent.txt is those sections' lines of the scrape
// captured from it; the bitmap's lines are bfwall's to hold). A
// million-byte checkpoint pins the %g gauge: 1.048576e+06, as it was.
func TestMetricsSamplesPreserved(t *testing.T) {
	var clock atomic.Int64
	wd := resilience.NewWatchdog(func() time.Duration { return time.Duration(clock.Load()) })
	wd.Heartbeat("capture", 100*time.Millisecond).Beat()
	wd.Heartbeat("checkpoint", time.Minute)
	clock.Store(int64(1500 * time.Millisecond))
	health := resilience.NewHealth(wd)
	health.SetReady()
	cp := &checkpoint.Stats{Attempts: 5, Successes: 3, Failures: 2, LastBytes: 1 << 20}

	golden, err := os.ReadFile("testdata/sections_parent.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(samples(scrape(t, sectionsServer(t, health, cp, checkpoint.RestoreResult{Outcome: checkpoint.OutcomeBackup}))), "\n") + "\n"
	if got != string(golden) {
		t.Errorf("sample lines differ from the parent's.\ngot:\n%s\nwant:\n%s", got, golden)
	}
}

// TestMetricsContract scrapes the sections as a daemon serves them — health
// with a watchdog, a checkpointer wired — and holds what they write to the
// exposition contract and, name by name and kind by kind, to bfwall's rows
// of DESIGN.md §8: every family written is a row, and every
// bitmapfilter_checkpoint_* row, WriteCheckpoint's alone, is written.
// bfwall's own TestMetricsContract holds the whole scrape to the rest.
func TestMetricsContract(t *testing.T) {
	wd := resilience.NewWatchdog(nil)
	wd.Heartbeat("pump", time.Minute)
	kinds, problems := expotest.Check(scrape(t, sectionsServer(t, resilience.NewHealth(wd), &checkpoint.Stats{}, checkpoint.RestoreResult{})))
	for _, p := range problems {
		t.Error(p)
	}
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range expotest.Diff(kinds, string(design), "bfwall") {
		if name, _, _ := strings.Cut(p, ":"); kinds[name] != "" || strings.HasPrefix(name, "bitmapfilter_checkpoint_") {
			t.Error(p)
		}
	}
}
