package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"bitmapfilter/internal/capture"
	"bitmapfilter/internal/core"
	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/tenant"
)

// fleetClients is where the fleet tests' traces put their clients: a
// quarter each in 10.0/16, 10.1/16, 11.0/16 and 12.0/16.
const fleetClients = "10.0.0.0/15,11.0.0.0/16,12.0.0.0/16"

func fleetAPD(t *testing.T) core.DropPolicy {
	t.Helper()
	apd, err := core.NewBandwidthPolicy(5e6, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return apd
}

// fleetConfig is the fleet those traces run against: a /8 with a /16 carved
// out of it (10.1.x.x must reach the carve-out — longest match), a sharded
// tenant, a goroutine-safe one, and nobody for 12.0/16, whose frames the
// pump counts unrouted. Every tenant rotates each 100 ms of trace time and
// spares part of the scan under a bandwidth APD policy, so marks, rotations
// and APD draws all depend on each tenant seeing its packets in order.
func fleetConfig(t *testing.T) tenant.SetConfig {
	t.Helper()
	opts := func(seed uint64, more ...core.Option) []core.Option {
		return append([]core.Option{core.WithOrder(13), core.WithVectors(4), core.WithHashes(3),
			core.WithRotateEvery(100 * time.Millisecond), core.WithSeed(seed), core.WithAPD(fleetAPD(t))}, more...)
	}
	return tenant.SetConfig{Tenants: []tenant.Config{
		{ID: "wide", Prefix: packet.PrefixFrom(packet.AddrFrom4(10, 0, 0, 0), 8), Options: opts(1)},
		{ID: "carved", Prefix: packet.PrefixFrom(packet.AddrFrom4(10, 1, 0, 0), 16), Options: opts(2, core.WithShards(2))},
		{ID: "safe", Prefix: packet.PrefixFrom(packet.AddrFrom4(11, 0, 0, 0), 16), Options: opts(3, core.WithConcurrencySafe())},
	}}
}

func fleetSet(t *testing.T) *tenant.Set {
	t.Helper()
	set, err := tenant.NewSet(fleetConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// fleetPump replays trace through a pump over set: the subnets it is given
// are wrong on purpose, because a fleet's pump classifies with the fleet's
// table and no other.
func fleetPump(t *testing.T, trace []byte, loops int, set *tenant.Set, batch int) (*pump, *wallStats) {
	t.Helper()
	src, err := capture.NewReplayBytes(trace, loops)
	if err != nil {
		t.Fatal(err)
	}
	subnets, _ := parseSubnets("192.0.2.0/24")
	stats := newWallStats(time.Now())
	p := newPump(src, set, subnets, batch, 0, stats)
	if len(p.lanes) != 1 || p.clients != set.Routes() {
		t.Fatalf("pump over a fleet: %d lanes, own table %v; want one lane and the fleet's table", len(p.lanes), p.clients != set.Routes())
	}
	return p, stats
}

// TestFleetLaneMatchesSetReference is the fleet lane's differential: a
// scan-shaped and a two-way trace through the pump — dispatcher, slots
// riding with the packets, lane, routed regroup — against a second Set's
// ProcessBatchInto over the same packets decoded and classified without the
// pump. Totals, the unrouted count and every tenant's Stats must be equal.
func TestFleetLaneMatchesSetReference(t *testing.T) {
	traces := map[string][]byte{
		"scan":    testTraceOver(t, fleetClients, 40_000, 25, 500*time.Millisecond),
		"two_way": testTraceOver(t, fleetClients, 500, 4000, 500*time.Millisecond),
	}
	cfg := fleetConfig(t)
	prefixes := make([]packet.Prefix, len(cfg.Tenants))
	for i, tc := range cfg.Tenants {
		prefixes[i] = tc.Prefix
	}
	for name, trace := range traces {
		t.Run(name, func(t *testing.T) {
			pkts, unrouted := decodeTraceOver(t, trace, prefixes)
			ref := fleetSet(t)
			var want totalsOf
			var verdicts []filtering.Verdict
			// 37 divides nothing: the pump's source batches and sub-batches
			// and the reference's batches all end at different packets.
			for at := 0; at < len(pkts); at += 37 {
				chunk := pkts[at:min(at+37, len(pkts))]
				verdicts = ref.ProcessBatchInto(chunk, verdicts)
				want.add(chunk, verdicts)
			}
			for _, st := range ref.TenantStats() {
				if st.Stats.Counters.InPassed == 0 || st.Stats.Counters.InDropped == 0 || st.Stats.Rotations == 0 || st.Stats.APDSpared == 0 {
					t.Fatalf("trace exercises tenant %s too little: %+v", st.ID, st.Stats)
				}
			}
			if unrouted == 0 {
				t.Fatal("trace has no frame outside the fleet")
			}

			set := fleetSet(t)
			p, stats := fleetPump(t, trace, 1, set, 37)
			if err := p.run(); err != nil {
				t.Fatal(err)
			}
			got := totalsOf{stats.outgoing.Load(), stats.incoming.Load(), stats.passed.Load(), stats.dropped.Load()}
			if frames := stats.frames.Load(); frames != uint64(len(pkts))+unrouted || got != want || stats.unrouted.Load() != unrouted {
				t.Errorf("fleet pump: %d frames %+v, %d unrouted; reference: %d frames %+v, %d unrouted",
					frames, got, stats.unrouted.Load(), uint64(len(pkts))+unrouted, want, unrouted)
			}
			if set.UnroutedPackets() != 0 || ref.UnroutedPackets() != 0 {
				t.Errorf("the Set was handed packets outside the fleet: %d through the pump, %d in the reference", set.UnroutedPackets(), ref.UnroutedPackets())
			}
			if got, want := set.TenantStats(), ref.TenantStats(); !reflect.DeepEqual(got, want) {
				for i := range got {
					t.Errorf("tenant %s\n  lane:      %+v\n  reference: %+v", got[i].ID, got[i].Stats, want[i].Stats)
				}
			}
			if judged := p.lanes[0].frames.Load(); judged != uint64(len(pkts)) {
				t.Errorf("the lane judged %d packets of %d", judged, len(pkts))
			}
		})
	}
}

// slotVandal hands the fleet a slot it never issued, once.
type slotVandal struct {
	routedFilter
	calls, vandalizeOn int
}

func (v *slotVandal) ProcessRoutedInto(pkts []packet.Packet, slots []int32, out []filtering.Verdict) []filtering.Verdict {
	if v.calls++; v.calls == v.vandalizeOn {
		slots[len(slots)/2] = -2
	}
	return v.routedFilter.ProcessRoutedInto(pkts, slots, out)
}

// TestFleetLaneQuarantinesHostileSlot: a slot outside the fleet reaches the
// Set through the pump. The Set refuses the sub-batch before touching a
// tenant, the lane's boundary quarantines exactly that sub-batch, and every
// other packet is judged: the fleet's counters hold what the pump counted
// judged, nothing of the quarantined sub-batch.
func TestFleetLaneQuarantinesHostileSlot(t *testing.T) {
	trace := testTraceOver(t, fleetClients, 40_000, 200, 200*time.Millisecond)
	set := fleetSet(t)
	p, stats := fleetPump(t, trace, 1, set, 64)
	p.lanes[0].routed = &slotVandal{routedFilter: set, vandalizeOn: 3}
	var logged []string
	p.logf = func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }
	if err := p.run(); err != nil {
		t.Fatalf("pump died on a contained panic: %v", err)
	}
	if b, f := stats.quarantinedBatches.Load(), stats.quarantinedFrames.Load(); b != 1 || f != minSubBatch {
		t.Errorf("quarantined %d sub-batches, %d frames; want 1 and one full sub-batch of %d", b, f, minSubBatch)
	}
	if len(logged) != 1 || !strings.Contains(logged[0], "slot -2 outside [-1, 3)") {
		t.Errorf("quarantine log = %q, want one line naming the slot", logged)
	}
	judged := stats.outgoing.Load() + stats.incoming.Load()
	if sum := judged + stats.unrouted.Load() + stats.quarantinedFrames.Load(); sum != stats.frames.Load() || judged < 4*minSubBatch {
		t.Errorf("%d frames read: %d judged, %d unrouted, %d quarantined", stats.frames.Load(), judged, stats.unrouted.Load(), stats.quarantinedFrames.Load())
	}
	if c := set.Counters(); c.OutPackets != stats.outgoing.Load() || c.InPackets != stats.incoming.Load() || c.InPassed != stats.passed.Load() {
		t.Errorf("fleet counters %+v, pump counted %d out / %d in / %d passed: the refused sub-batch left a trace", c, stats.outgoing.Load(), stats.incoming.Load(), stats.passed.Load())
	}
}

// TestFleetLaneDrainBeforeSnapshot is TestLanesDrainBeforeSnapshot for a
// fleet: a source closed mid-replay ends run only after the lane judged all
// it was sent, and a snapshot taken when run returns restores to exactly the
// lane's state.
func TestFleetLaneDrainBeforeSnapshot(t *testing.T) {
	trace := testTraceOver(t, fleetClients, 40_000, 200, 500*time.Millisecond)
	set := fleetSet(t)
	p, stats := fleetPump(t, trace, 1000, set, 64)
	p.src = &closeAfter{Source: p.src, reads: 100}
	if err := p.run(); err != nil {
		t.Fatal(err)
	}
	frames := stats.frames.Load()
	if frames == 0 || frames%64 != 0 {
		t.Fatalf("%d frames read before the close, want a positive number of full batches", frames)
	}
	if sum := stats.outgoing.Load() + stats.incoming.Load() + stats.unrouted.Load(); sum != frames {
		t.Errorf("%d frames read, %d judged or counted", frames, sum)
	}
	if c := set.Counters(); c.OutPackets != stats.outgoing.Load() || c.InPackets != stats.incoming.Load() {
		t.Errorf("fleet counters %+v, pump counted %d out / %d in", c, stats.outgoing.Load(), stats.incoming.Load())
	}
	var snap bytes.Buffer
	if err := set.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	restored, err := tenant.ReadSnapshot(&snap, func(string) []core.Option { return []core.Option{core.WithAPD(fleetAPD(t))} })
	if err != nil {
		t.Fatal(err)
	}
	got, want := restored.TenantStats(), set.TenantStats()
	for i := range want {
		// The APD window and its spared count are not part of a snapshot;
		// everything else is.
		got[i].Stats.APDDropProbability, want[i].Stats.APDDropProbability = 0, 0
		got[i].Stats.APDSpared, want[i].Stats.APDSpared = 0, 0
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("tenant %s\n  restored: %+v\n  lane:     %+v", want[i].ID, got[i].Stats, want[i].Stats)
		}
	}
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

// TestFleetLaneDrainOnSignal is TestLanedDrainOnSignal for a fleet: SIGTERM
// in the middle of a replay. The final checkpoint is taken after the lane is
// joined, so the counters it restores to are the ones the exit line reports.
func TestFleetLaneDrainOnSignal(t *testing.T) {
	drainOnSignal(t, func(r io.Reader) (filtering.Counters, error) {
		set, err := tenant.ReadSnapshot(r, nil)
		if err != nil {
			return filtering.Counters{}, err
		}
		return set.Counters(), nil
	}, "-tenants", writeFleet(t, t.TempDir(), fleetJSON))
}

// raceEnabled is set by race_test.go under -race, where sync.Pool sheds a
// quarter of what it is given and the Set's pooled scratch is allocated
// anew: the pipeline still runs there, for the detector, without the count.
var raceEnabled bool

// TestFleetLanePumpZeroAllocsSteadyState extends the hot-loop contract to a
// fleet's lane: in-place decode, the slots, the hand-off and the routed
// regroup allocate nothing per frame once warm.
func TestFleetLanePumpZeroAllocsSteadyState(t *testing.T) {
	batch := make([]capture.Frame, 64)
	for i := range batch {
		data := encodeFrame(t, packet.Packet{
			Tuple: packet.Tuple{Src: packet.AddrFrom4(10, byte(i%2), 0, byte(i)), Dst: packet.AddrFrom4(198, 51, 100, 7),
				SrcPort: uint16(4000 + i), DstPort: 80, Proto: packet.TCP},
			Dir: packet.Outgoing, Flags: packet.SYN, Length: 60})
		batch[i] = capture.Frame{Time: time.Duration(i) * time.Millisecond, Data: data, OrigLen: len(data)}
	}
	set := fleetSet(t)
	stats := newWallStats(time.Now())
	p := newPump(nil, set, nil, 16, 0, stats)
	p.startLanes()
	for i := 0; i < 4*laneBuffers*minSubBatch/len(batch); i++ { // warm: every buffer, the verdict slice, the Set's scratch
		p.dispatchFleet(batch, i%7 == 0)
	}
	full := testing.AllocsPerRun(100, func() { p.dispatchFleet(batch, false) })
	flushed := testing.AllocsPerRun(100, func() { p.dispatchFleet(batch, true) })
	p.stopLanes()
	if (full != 0 || flushed != 0) && !raceEnabled {
		t.Errorf("fleet pump allocates per source batch: %.2f with full hand-offs, %.2f with flushes", full, flushed)
	}
	if judged := p.lanes[0].frames.Load(); judged != stats.frames.Load() || judged == 0 {
		t.Errorf("the lane judged %d packets of %d dispatched", judged, stats.frames.Load())
	}
	if c := set.TenantStats(); c[0].Stats.Counters.OutPackets == 0 || c[1].Stats.Counters.OutPackets == 0 {
		t.Errorf("the batch should reach both 10.0/16 (wide) and 10.1/16 (carved): %+v / %+v", c[0].Stats.Counters, c[1].Stats.Counters)
	}
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

// wedgeRouted is wedgeFilter for a fleet's lane.
type wedgeRouted struct {
	routedFilter
	once             sync.Once
	entered, release chan struct{}
}

func (w *wedgeRouted) ProcessRoutedInto(pkts []packet.Packet, slots []int32, out []filtering.Verdict) []filtering.Verdict {
	w.once.Do(func() {
		close(w.entered)
		<-w.release
	})
	return w.routedFilter.ProcessRoutedInto(pkts, slots, out)
}
