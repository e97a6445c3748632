package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"bitmapfilter/internal/checkpoint"
	"bitmapfilter/internal/core"
	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/pump"
	"bitmapfilter/internal/tenant"
)

// The control plane: what bfwall reads and changes of the filter itself —
// the restore ladder and what every rung re-attaches, the bitmap's block of
// /stats and /metrics, POST /punch, POST /checkpoint, a budgeted fleet's
// rebalancing — and TestControlPlaneWhilePumping, all of it at once while
// the pump judges.

var controlGeom = []core.Option{core.WithOrder(12), core.WithVectors(4), core.WithHashes(3), core.WithRotateEvery(5 * time.Second)}

var (
	client = packet.AddrFrom4(10, 0, 0, 1)
	server = packet.AddrFrom4(198, 51, 100, 7)
	flow   = packet.Tuple{Src: client, Dst: server, SrcPort: 4000, DstPort: 80, Proto: packet.TCP}
)

func mustBuild(t *testing.T, ckptPath string, spec filterSpec) (core.Snapshottable, checkpoint.RestoreResult) {
	t.Helper()
	bf, res, err := buildFilter(ckptPath, spec)
	if err != nil {
		t.Fatal(err)
	}
	return bf, res
}

// serve is bfwall's mux over plane, with an idle pump.
func serve(t *testing.T, plane *controlPlane) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(newMux(time.Now(), func() pump.Snapshot { return pump.Snapshot{} }, plane))
	t.Cleanup(srv.Close)
	return srv
}

func do(t *testing.T, method, url string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
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

func statsOf(t *testing.T, srv *httptest.Server) statsSnapshot {
	t.Helper()
	_, body := do(t, "GET", srv.URL+"/stats")
	var s statsSnapshot
	if err := json.Unmarshal([]byte(body), &s); err != nil {
		t.Fatalf("/stats JSON: %v\n%s", err, body)
	}
	return s
}

// TestWarmRestartAdmitsEstablishedFlows is the restart drill: mark a flow,
// checkpoint, rebuild the filter from disk the way run does on boot, and the
// reply is still admitted — a single filter and a sharded one.
func TestWarmRestartAdmitsEstablishedFlows(t *testing.T) {
	for _, shards := range []int{1, 4} {
		path := filepath.Join(t.TempDir(), "state.bmf")
		spec := filterSpec{geom: controlGeom, shards: shards}
		f1, res := mustBuild(t, path, spec)
		if res.Outcome != checkpoint.OutcomeColdStartEmpty {
			t.Fatalf("shards=%d: first boot outcome = %v, want cold-start-empty", shards, res.Outcome)
		}
		f1.Process(packet.Packet{Time: time.Second, Tuple: flow, Dir: packet.Outgoing, Flags: packet.SYN, Length: 60})
		if _, err := checkpoint.Save(path, f1.WriteSnapshot); err != nil {
			t.Fatal(err)
		}
		f2, res := mustBuild(t, path, spec)
		if res.Outcome != checkpoint.OutcomePrimary {
			t.Fatalf("shards=%d: restart outcome = %v, want primary", shards, res.Outcome)
		}
		if v := f2.Process(packet.Packet{Time: 2 * time.Second, Tuple: flow.Reverse(), Dir: packet.Incoming, Flags: packet.ACK, Length: 60}); v != filtering.Pass {
			t.Errorf("shards=%d: established flow dropped after warm restart", shards)
		}
	}
}

// TestWarmRestartShardedFlavor: the snapshot is authoritative for the
// flavor — a daemon checkpointed with 4 shards restores 4 shards even if the
// restart flags say otherwise — and a restored single filter is the bare
// filter a cold start builds.
func TestWarmRestartShardedFlavor(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.bmf")
	f1, _ := mustBuild(t, path, filterSpec{geom: controlGeom, shards: 4})
	if _, err := checkpoint.Save(path, f1.WriteSnapshot); err != nil {
		t.Fatal(err)
	}
	f2, res := mustBuild(t, path, filterSpec{geom: controlGeom, shards: 1})
	if sh, ok := f2.(*core.Sharded); res.Outcome != checkpoint.OutcomePrimary || !ok || sh.Shards() != 4 {
		t.Errorf("restored %s (%v), want 4 shards from the primary", f2.Name(), res.Outcome)
	}

	path = filepath.Join(t.TempDir(), "state.bmf")
	f1, _ = mustBuild(t, path, filterSpec{geom: controlGeom})
	if _, err := checkpoint.Save(path, f1.WriteSnapshot); err != nil {
		t.Fatal(err)
	}
	if f2, _ := mustBuild(t, path, filterSpec{geom: controlGeom}); fmt.Sprintf("%T", f2) != "*core.Filter" {
		t.Errorf("restored single filter is a %T, want *core.Filter", f2)
	}
}

// TestCorruptCheckpointColdStarts: a mangled checkpoint (no backup) comes up
// empty rather than fail the boot or restore garbage.
func TestCorruptCheckpointColdStarts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.bmf")
	if err := os.WriteFile(path, []byte("not a snapshot at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, res := mustBuild(t, path, filterSpec{geom: controlGeom})
	if res.Outcome != checkpoint.OutcomeColdStartCorrupt {
		t.Fatalf("outcome = %v, want cold-start-corrupt", res.Outcome)
	}
	if res.PrimaryErr == nil {
		t.Error("corrupt primary error not reported")
	}
	if f.Stats().Marks != 0 {
		t.Error("cold start carries marks")
	}
}

// TestNoCheckpointPathColdStarts: without -checkpoint the filter is built
// from the flags only: a bare filter, or shards behind their one lock.
func TestNoCheckpointPathColdStarts(t *testing.T) {
	for shards, want := range map[int]string{1: "*core.Filter", 2: "*core.Sharded"} {
		f, res := mustBuild(t, "", filterSpec{geom: controlGeom, shards: shards})
		if res.Outcome != checkpoint.OutcomeColdStartEmpty || fmt.Sprintf("%T", f) != want {
			t.Errorf("-shards %d: %T (%v), want a %s from a cold start", shards, f, res.Outcome, want)
		}
	}
}

// TestAPDOnEveryRung: APD policies are not serialized, so every rung of the
// restore ladder — for a single filter, shards and a fleet — re-attaches
// one: to every shard and every tenant, and /metrics says so.
func TestAPDOnEveryRung(t *testing.T) {
	mkAPD, err := apdFactory("ratio", 0)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := tenant.ParseConfig([]byte(fleetJSON))
	if err != nil {
		t.Fatal(err)
	}
	for name, spec := range map[string]filterSpec{
		"single": {geom: controlGeom, apd: mkAPD},
		"shards": {geom: controlGeom, shards: 2, apd: mkAPD},
		"fleet":  {apd: mkAPD, fleet: &fleet},
	} {
		dir := t.TempDir()
		path := filepath.Join(dir, "state.bmf")
		save := func(bf core.Snapshottable) {
			if _, err := checkpoint.Save(path, bf.WriteSnapshot); err != nil {
				t.Fatal(err)
			}
		}
		corrupt := func() {
			if err := os.WriteFile(path, []byte("torn"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		for _, rung := range []struct {
			want    checkpoint.Outcome
			prepare func(bf core.Snapshottable)
		}{
			{checkpoint.OutcomeColdStartEmpty, func(core.Snapshottable) {}},
			{checkpoint.OutcomePrimary, save},
			{checkpoint.OutcomeBackup, func(bf core.Snapshottable) { save(bf); corrupt() }}, // the second save moved the first to .bak
			{checkpoint.OutcomeColdStartCorrupt, func(core.Snapshottable) { os.Remove(path + ".bak"); corrupt() }},
		} {
			bf, _ := mustBuild(t, path, spec)
			rung.prepare(bf)
			bf, res := mustBuild(t, path, spec)
			if res.Outcome != rung.want {
				t.Fatalf("%s: outcome %v, want %v", name, res.Outcome, rung.want)
			}
			enabled := []bool{bf.Stats().APDEnabled}
			switch f := bf.(type) {
			case *core.Sharded:
				for _, s := range f.ShardStats() {
					enabled = append(enabled, s.APDEnabled)
				}
			case *tenant.Set:
				for _, s := range f.TenantStats() {
					enabled = append(enabled, s.Stats.APDEnabled)
				}
			}
			if _, m := do(t, "GET", serve(t, &controlPlane{bf: bf}).URL+"/metrics"); !strings.Contains(m, "\nbitmapfilter_apd_enabled 1\n") || strings.Contains(fmt.Sprint(enabled), "false") {
				t.Errorf("%s, %v: APD enabled %v (aggregate, then each shard or tenant); /metrics:\n%s", name, rung.want, enabled, m)
			}
		}
	}
}

// TestFleetBudgetRebalances: a fleet whose config sets a memory budget is
// re-planned while bfwall runs — the hot tenant grows — and still after a
// restore from bfwall's own checkpoint, which holds no budget: now the other
// tenant is hot, and grows.
func TestFleetBudgetRebalances(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "fleet.bmf")
	fleetPath := writeFleet(t, dir, `{"budgetBytes":65536,"targetPenetration":0.01,"tenants":[
		{"id":"a","prefix":"10.0.0.0/9","order":10,"rotate":"20ms"},
		{"id":"b","prefix":"10.128.0.0/9","order":10,"rotate":"20ms"}]}`)
	orderOf := func(set *tenant.Set, id string) uint {
		for _, s := range set.TenantStats() {
			if s.ID == id {
				return s.Stats.Order
			}
		}
		return 0
	}
	for _, run := range []struct{ clients, hot, boot string }{
		{"10.0.0.0/16", "a", "cold start"},
		{"10.128.0.0/16", "b", "restored filter state from"},
	} {
		out := runUntil(t, ckpt, func(set *tenant.Set) bool { return orderOf(set, run.hot) > 10 },
			"-tenants", fleetPath, "-subnets", run.clients, "-conn-rate", "2000", "-scan-pps", "1000", "-gen-duration", "200ms")
		if !strings.Contains(out, run.boot) {
			t.Errorf("tenant %s hot: want %q in\n%s", run.hot, run.boot, out)
		}
	}
}

// runUntil runs bfwall with args over an endless replay of the synthesized
// trace and a checkpoint every 20 ms, until the fleet in a checkpoint meets
// done; then it drains bfwall and returns what bfwall printed.
func runUntil(t *testing.T, ckpt string, done func(*tenant.Set) bool, args ...string) string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	met := make(chan bool, 1)
	go func() {
		defer cancel()
		for deadline := time.Now().Add(30 * time.Second); ctx.Err() == nil && time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
			f, err := os.Open(ckpt)
			if err != nil {
				continue
			}
			set, err := tenant.ReadSnapshot(f, nil)
			f.Close()
			if err == nil && done(set) {
				met <- true
				return
			}
		}
		met <- false
	}()
	var out bytes.Buffer
	if err := run(ctx, append(args, "-loops", "1000000", "-checkpoint", ckpt, "-checkpoint-every", "20ms"), &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !<-met {
		t.Fatalf("no checkpoint met the condition in 30 s:\n%s", out.String())
	}
	return out.String()
}

// TestPunch: a punched hole admits the remote's first packet.
func TestPunch(t *testing.T) {
	bf, _ := mustBuild(t, "", filterSpec{geom: controlGeom})
	srv := serve(t, &controlPlane{bf: bf})
	if code, body := do(t, "POST", srv.URL+"/punch?local=10.0.0.5&port=20000&remote=198.51.100.7&proto=tcp"); code != http.StatusOK {
		t.Fatalf("status = %d: %s", code, body)
	}
	v := bf.Process(packet.Packet{Time: time.Second, Dir: packet.Incoming, Flags: packet.SYN, Length: 60, Tuple: packet.Tuple{
		Src: server, Dst: packet.AddrFrom4(10, 0, 0, 5), SrcPort: 20, DstPort: 20000, Proto: packet.TCP,
	}})
	if v != filtering.Pass {
		t.Error("punched connection dropped")
	}
}

// TestPunchValidation: /punch parses addresses as -subnets and the fleet
// config do, so a sign, a leading zero or a short quad is a 400.
func TestPunchValidation(t *testing.T) {
	bf, _ := mustBuild(t, "", filterSpec{geom: controlGeom})
	srv := serve(t, &controlPlane{bf: bf})
	for _, path := range []string{
		"/punch?local=nonsense&port=1&remote=1.2.3.4",
		"/punch?local=1.2.3.4&port=0&remote=1.2.3.4",
		"/punch?local=1.2.3.4&port=99999&remote=1.2.3.4",
		"/punch?local=1.2.3.4&port=80&remote=1.2.3",
		"/punch?local=1.2.3.4&port=80&remote=1.2.3.4&proto=icmp",
		"/punch?local=1.2.3.999&port=80&remote=1.2.3.4",
		"/punch?local=%2B10.0.0.5&port=80&remote=1.2.3.4",
		"/punch?local=010.0.0.5&port=80&remote=1.2.3.4",
		"/punch?local=10.0.0.5&port=80&remote=-0.0.0.5",
	} {
		if code, _ := do(t, "POST", srv.URL+path); code != http.StatusBadRequest {
			t.Errorf("POST %s status = %d, want 400", path, code)
		}
	}
	if code, _ := do(t, "GET", srv.URL+"/punch?local=1.2.3.4&port=80&remote=1.2.3.4"); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /punch status = %d", code)
	}
}

// newCheckpointer is a checkpointer over a temporary file whose every
// snapshot is size bytes — or, with fail set, fails with it — and the count
// of snapshots it was asked for.
func newCheckpointer(t *testing.T, size int, fail error) (*checkpoint.Checkpointer, *int) {
	t.Helper()
	calls := new(int)
	cp, err := checkpoint.New(checkpoint.Config{
		Path:     filepath.Join(t.TempDir(), "state.bmf"),
		Interval: 30 * time.Second,
		Write: func(w io.Writer) error {
			*calls++
			if fail != nil {
				return fail
			}
			_, err := w.Write(make([]byte, size))
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return cp, calls
}

func TestCheckpointEndpoint(t *testing.T) {
	cp, calls := newCheckpointer(t, 1234, nil)
	srv := serve(t, &controlPlane{cp: cp})
	code, body := do(t, "POST", srv.URL+"/checkpoint")
	if code != http.StatusOK || *calls != 1 || !strings.Contains(body, "1234 bytes") {
		t.Errorf("POST /checkpoint = %d %q after %d saves, want 200, one save and its size", code, body, *calls)
	}
	if code, _ := do(t, "GET", srv.URL+"/checkpoint"); code == http.StatusOK || *calls != 1 {
		t.Errorf("GET /checkpoint = %d after %d saves, want a method rejection and no save", code, *calls)
	}
}

// TestCheckpointEndpointError: a failing save is a 500 with the reason, and
// /stats then shows every attempt of the round failed, the last error, and
// no success yet.
func TestCheckpointEndpointError(t *testing.T) {
	cp, calls := newCheckpointer(t, 0, errors.New("disk full"))
	srv := serve(t, &controlPlane{cp: cp})
	if code, body := do(t, "POST", srv.URL+"/checkpoint"); code != http.StatusInternalServerError || !strings.Contains(body, "disk full") {
		t.Errorf("POST /checkpoint = %d %q, want 500 and the reason", code, body)
	}
	c := statsOf(t, srv).Checkpoint
	if c == nil || c.Attempts != uint64(*calls) || c.Failures != c.Attempts || c.Attempts < 2 || c.Successes != 0 ||
		c.LastSuccessAge != -1 || !strings.Contains(c.LastError, "disk full") {
		t.Errorf("/stats checkpoint = %+v after %d saves, want every retried attempt failed", c, *calls)
	}
}

// TestCheckpointAbsentWithoutOption: without -checkpoint there is no POST
// /checkpoint, without a filter no POST /punch, and nothing else is served.
func TestCheckpointAbsentWithoutOption(t *testing.T) {
	srv := serve(t, &controlPlane{})
	for _, path := range []string{"/checkpoint", "/punch?local=1.2.3.4&port=80&remote=1.2.3.4", "/nope"} {
		if code, _ := do(t, "POST", srv.URL+path); code != http.StatusNotFound {
			t.Errorf("POST %s = %d, want 404", path, code)
		}
	}
}

func TestStatsIncludesCheckpoint(t *testing.T) {
	cp, _ := newCheckpointer(t, 4096, nil)
	if err := cp.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	c := statsOf(t, serve(t, &controlPlane{cp: cp, restore: checkpoint.RestoreResult{Outcome: checkpoint.OutcomeBackup, File: "/s.bmf.bak"}})).Checkpoint
	if c == nil || c.LastSuccessAge < 0 || c.LastSuccessAge > 60 {
		t.Fatalf("/stats checkpoint = %+v, want a success seconds ago", c)
	}
	c.LastSuccessAge = 0
	want := checkpointSnapshot{RestoreOutcome: "backup", RestoredFrom: "/s.bmf.bak", Interval: 30, Attempts: 1, Successes: 1, LastBytes: 4096}
	if *c != want {
		t.Errorf("/stats checkpoint = %+v, want %+v", *c, want)
	}
}

func TestStatsOmitsCheckpointWhenDisabled(t *testing.T) {
	if _, body := do(t, "GET", serve(t, &controlPlane{}).URL+"/stats"); strings.Contains(body, `"checkpoint"`) || strings.Contains(body, `"bitmap"`) {
		t.Errorf("/stats has a checkpoint or bitmap block with neither:\n%s", body)
	}
}

// TestStatsJSON: /stats carries the bitmap's own state.
func TestStatsJSON(t *testing.T) {
	bf, _ := mustBuild(t, "", filterSpec{geom: controlGeom})
	bf.Process(packet.Packet{Time: time.Second, Tuple: flow, Dir: packet.Outgoing, Flags: packet.SYN, Length: 60})
	b := statsOf(t, serve(t, &controlPlane{bf: bf})).Bitmap
	if b == nil || b.Marks != 1 || b.Utilization == 0 || len(b.VectorUtilization) != 4 || b.Penetration == 0 || b.APDEnabled {
		t.Errorf("/stats bitmap = %+v", b)
	}
}

func TestMetricsExposition(t *testing.T) {
	bf, _ := mustBuild(t, "", filterSpec{geom: controlGeom})
	bf.Process(packet.Packet{Time: time.Second, Tuple: flow, Dir: packet.Outgoing, Flags: packet.ACK, Length: 60})
	_, body := do(t, "GET", serve(t, &controlPlane{bf: bf}).URL+"/metrics")
	for _, metric := range []string{
		"bitmapfilter_utilization",
		"bitmapfilter_marks_total 1",
		"bitmapfilter_rotations_total 0",
		"# TYPE bitmapfilter_utilization gauge",
		"# TYPE bitmapfilter_marks_total counter",
		"# TYPE bitmapfilter_vector_utilization gauge",
		`bitmapfilter_vector_utilization{vector="0"}`,
		`bitmapfilter_vector_utilization{vector="3"}`,
		"bitmapfilter_current_vector_index 0",
	} {
		if !strings.Contains(body, metric) {
			t.Errorf("metrics missing %q\n%s", metric, body)
		}
	}
}

// TestShardedAPDExposition: a sharded filter with -apd ratio shows the APD
// state and a per-shard breakdown on /stats, and the aggregate and per-shard
// series on /metrics.
func TestShardedAPDExposition(t *testing.T) {
	mkAPD, err := apdFactory("ratio", 0)
	if err != nil {
		t.Fatal(err)
	}
	bf, _ := mustBuild(t, "", filterSpec{geom: controlGeom, shards: 4, apd: mkAPD})
	// Incoming-only probes: each shard spares its first admitted probe and
	// then saturates its clone's ratio indicator at p = 1.
	for i := 0; i < 64; i++ {
		bf.Process(packet.Packet{Time: time.Second, Dir: packet.Incoming, Flags: packet.SYN, Length: 60, Tuple: packet.Tuple{
			Src: packet.AddrFrom4(203, 0, 113, byte(i)), Dst: client, SrcPort: 80, DstPort: uint16(5000 + i), Proto: packet.TCP,
		}})
	}
	srv := serve(t, &controlPlane{bf: bf})
	b := statsOf(t, srv).Bitmap
	if b == nil || !b.APDEnabled || b.APDDropProbability == 0 || len(b.Shards) != 4 {
		t.Fatalf("/stats bitmap = %+v, want APD on, dropping, and 4 shards", b)
	}
	var spared uint64
	for _, s := range b.Shards {
		spared += s.APDSpared
	}
	if spared != b.APDSpared || spared == 0 {
		t.Errorf("per-shard apd_spared sum to %d, aggregate says %d", spared, b.APDSpared)
	}
	_, body := do(t, "GET", srv.URL+"/metrics")
	for _, metric := range []string{
		"bitmapfilter_apd_enabled 1",
		"bitmapfilter_apd_drop_probability",
		"# TYPE bitmapfilter_shard_apd_drop_probability gauge",
		`bitmapfilter_shard_apd_drop_probability{shard="0"}`,
		`bitmapfilter_shard_apd_drop_probability{shard="3"}`,
		`bitmapfilter_shard_utilization{shard="0"}`,
		"# TYPE bitmapfilter_shard_apd_spared_total counter",
		`bitmapfilter_shard_apd_spared_total{shard="0"}`,
	} {
		if !strings.Contains(body, metric) {
			t.Errorf("metrics missing %q\n%s", metric, body)
		}
	}
}

// TestUnshardedHasNoShardBreakdown pins the inverse: a single filter reports
// no shards and no per-shard series, and APD off.
func TestUnshardedHasNoShardBreakdown(t *testing.T) {
	bf, _ := mustBuild(t, "", filterSpec{geom: controlGeom})
	srv := serve(t, &controlPlane{bf: bf})
	if b := statsOf(t, srv).Bitmap; b == nil || b.Shards != nil || b.Tenants != nil || b.APDEnabled {
		t.Errorf("/stats bitmap = %+v", b)
	}
	if _, body := do(t, "GET", srv.URL+"/metrics"); strings.Contains(body, "bitmapfilter_shard_") || !strings.Contains(body, "bitmapfilter_apd_enabled 0") {
		t.Errorf("/metrics of a single filter without APD:\n%s", body)
	}
}

// TestControlPlaneWhilePumping runs bfwall — a single filter, two shards, a
// fleet of bare tenants; -checkpoint and -apd ratio — and, while the pump
// judges, scrapes /metrics and /stats and POSTs /punch and /checkpoint from
// four goroutines at once. Under -race this is the proof that the control
// plane may touch the filter: commitMu, the shards' and the Set's write
// lock keep every read, punch and snapshot off a batch in flight.
func TestControlPlaneWhilePumping(t *testing.T) {
	for name, args := range map[string][]string{
		"single": nil,
		"shards": {"-shards", "2"},
		"fleet":  {"-tenants", writeFleet(t, t.TempDir(), fleetJSON)},
	} {
		t.Run(name, func(t *testing.T) {
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
				done <- run(ctx, append(args, "-listen", addr, "-loops", "1000000", "-apd", "ratio",
					"-scan-pps", "20000", "-conn-rate", "50", "-gen-duration", "100ms",
					"-checkpoint", filepath.Join(t.TempDir(), "state.bmf"), "-checkpoint-every", "20ms"), &out)
			}()
			base := "http://" + addr
			frames := func() uint64 {
				for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
					if resp, err := http.Get(base + "/stats"); err == nil {
						var s statsSnapshot
						err = json.NewDecoder(resp.Body).Decode(&s)
						resp.Body.Close()
						if err == nil && s.Frames > 0 {
							return s.Frames
						}
					}
				}
				t.Fatalf("bfwall never judged a frame:\n%s", out.String())
				return 0
			}
			first := frames()
			var wg sync.WaitGroup
			for _, req := range []struct{ method, path, want string }{
				{"GET", "/metrics", "\nbitmapfilter_apd_enabled 1\n"},
				{"GET", "/stats", `"apd_enabled": true`},
				{"POST", "/punch?local=10.0.0.5&port=20000&remote=198.51.100.7", "punched"},
				{"POST", "/checkpoint", "checkpointed"},
			} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 20; i++ {
						r, err := http.NewRequest(req.method, base+req.path, nil)
						if err != nil {
							t.Error(err)
							return
						}
						resp, err := http.DefaultClient.Do(r)
						if err != nil {
							t.Error(err)
							return
						}
						body, err := io.ReadAll(resp.Body)
						resp.Body.Close()
						if err != nil || resp.StatusCode != http.StatusOK || !strings.Contains(string(body), req.want) {
							t.Errorf("%s %s = %d %v, want %q in:\n%s", req.method, req.path, resp.StatusCode, err, req.want, body)
							return
						}
					}
				}()
			}
			wg.Wait()
			if last := frames(); last <= first {
				t.Errorf("the pump judged nothing while the control plane ran: %d frames, then %d", first, last)
			}
			cancel()
			if err := <-done; err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
		})
	}
}
