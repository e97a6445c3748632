package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bitmapfilter/internal/capture"
	"bitmapfilter/internal/core"
	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/pump"
	"bitmapfilter/internal/resilience"
	"bitmapfilter/internal/spec"
	"bitmapfilter/internal/tenant"
)

// One table: every behaviour of the data plane is one body below, run over
// the three filters bfwall builds (a single filter, -shards 2, a tenant
// fleet) at W = 1, 2, 4, through what the daemon itself uses of
// internal/pump — New, Watch, Run, Snapshot. The Worker* names are the
// single filter's rows of it (or every filter's), the Shards* names the
// shards' and the Fleet* names the fleet's. A single filter comes two ways:
// as bfwall builds it (the workers hash, the commit step only touches bits),
// and behind a wrapper that offers ProcessBatchInto alone (the filter hashes
// for itself). What the commit step feeds each filter is checked against
// the model in internal/pump's FuzzPumpSpec, and what has to step a worker
// by hand in internal/pump's own tests.

// workerCounts is the explicit W every row runs at: one loop, two workers
// handing batches to each other, and more workers than this box has cores.
var workerCounts = []int{1, 2, 4}

// pumpBuffers is internal/pump's workerBuffers: the batches a worker owns.
const pumpBuffers = 8

// minBatch is internal/pump's: the smallest batch that changes goroutine.
const minBatch = 512

// statFilter is what the rows need of a filter under test: what bfwall
// builds.
type statFilter = core.Snapshottable

// sink is one of the filters a commit can be for, as the rows build it: a
// single filter, or a routed one (sharded, a fleet) that locks itself.
type sink struct {
	name string
	// clients is where this sink's traces put their clients, routed the
	// prefixes that decide, for the reference, which of them the filter sees,
	// and told the subnets the pump is given: a fleet's are wrong on purpose,
	// because its pump classifies with the fleet's table and no other.
	clients, told string
	routed        []packet.Prefix
	// build makes a fresh filter. f, when set, goes wrong inside it: in a
	// batch a single filter or a fleet judges, or in what shard 1 does.
	build   func(t *testing.T, f *fault) statFilter
	restore func(t *testing.T, r io.Reader) statFilter
	// model is the spec's of a fresh filter (package spec).
	model func(t *testing.T) *spec.Group
}

// hashedFilter is internal/pump's, and what the rows need of one.
type hashedFilter interface {
	statFilter
	Hasher() *core.Hasher
	ProcessHashedInto(pkts []packet.Packet, pairs []uint64, out []filtering.Verdict) []filtering.Verdict
}

var (
	singleSink = singleSinkOf("single", true)
	// plainSink is a single filter that does not offer the two halves.
	plainSink = singleSinkOf("plain", false)
	fleetSink = sink{name: "fleet", clients: fleetClients, told: "192.0.2.0/24", routed: fleetPrefixes(),
		model: func(t *testing.T) *spec.Group {
			return spec.NewGroup([]spec.Config{modelOf(13, 1, 3, 5e6), modelOf(12, 2, 3, 5e6), modelOf(13, 3, 4, 5e6)}, fleetPrefixes())
		},
		build: func(t *testing.T, f *fault) statFilter {
			if f == nil {
				return fleetSet(t)
			}
			return &faultyFleet{Set: fleetSet(t), fault: f}
		},
		restore: func(t *testing.T, r io.Reader) statFilter {
			set, err := tenant.ReadSnapshot(r, func(string) []core.Option { return []core.Option{core.WithAPD(testAPD(t, 5e6))} })
			if err != nil {
				t.Fatal(err)
			}
			return set
		}}
	allSinks = []sink{singleSink, shardsSink(2), fleetSink}
)

// singleSinkOf is a sink that judges in place: through the filter's two
// halves, or (hashed false) through a wrapper's ProcessBatchInto.
func singleSinkOf(name string, hashed bool) sink {
	return sink{name: name, clients: "10.0.0.0/8", told: "10.0.0.0/8", routed: mustSubnets("10.0.0.0/8"),
		model: func(t *testing.T) *spec.Group {
			return spec.NewGroup([]spec.Config{modelOf(14, 0, 3, 20e6)}, nil)
		},
		build: func(t *testing.T, f *fault) statFilter {
			switch {
			case !hashed:
				return &faultyFilter{statFilter: singleFilter(t), fault: f}
			case f == nil:
				return singleFilter(t)
			}
			return &faultyHashed{hashedFilter: singleFilter(t), fault: f}
		},
		restore: func(t *testing.T, r io.Reader) statFilter {
			f, err := core.ReadAnySnapshot(r, core.WithAPD(testAPD(t, 20e6)))
			if err != nil {
				t.Fatal(err)
			}
			return f.(*core.Filter)
		}}
}

func shardsSink(n int) sink {
	return sink{name: fmt.Sprintf("shards=%d", n), clients: "10.0.0.0/8", told: "10.0.0.0/8", routed: mustSubnets("10.0.0.0/8"),
		model: func(t *testing.T) *spec.Group {
			cs := make([]spec.Config, n)
			for i := range cs {
				cs[i] = modelOf(14, 0, 3, 20e6/float64(n)) // a shard's clone, rescaled to its 1/n
			}
			return spec.NewGroup(cs, nil)
		},
		build: func(t *testing.T, f *fault) statFilter { return shardedFilter(t, n, f) },
		restore: func(t *testing.T, r io.Reader) statFilter {
			f, err := core.ReadAnySnapshot(r, core.WithAPD(testAPD(t, 20e6)))
			if err != nil {
				t.Fatal(err)
			}
			return f.(*core.Sharded)
		}}
}

func mustSubnets(s string) []packet.Prefix {
	subnets, err := parseSubnets(s)
	if err != nil {
		panic(err)
	}
	return subnets
}

// testPump is the pump the daemon would build over src and bf.
func testPump(src capture.Source, bf filtering.BatchFilter, sk sink, batch, workers int, logf func(string, ...any)) *pump.Pump {
	return pump.New(pump.Config{Source: src, Filter: bf, Subnets: mustSubnets(sk.told), Batch: batch, Workers: workers, Logf: logf})
}

// testAPDWindow is the window of testAPD's policies and of their model's.
const testAPDWindow = 200 * time.Millisecond

func testAPD(t *testing.T, bps float64) core.DropPolicy {
	t.Helper()
	apd, err := core.NewBandwidthPolicy(bps, testAPDWindow)
	if err != nil {
		t.Fatal(err)
	}
	return apd
}

// modelOf is the model of a filter of testGeometry, of order n with m hash
// functions, the seed given and testAPD's policy on a link of bps.
func modelOf(n uint, seed uint64, m int, bps float64) spec.Config {
	return spec.Config{Order: n, Vectors: 4, Hashes: m, RotateEvery: 100 * time.Millisecond, Seed: seed,
		APD: spec.APD{Bandwidth: true, Capacity: bps, Window: testAPDWindow}}
}

// memberStates is each member's State: a single filter's, or each shard's or
// tenant's.
func memberStates(bf statFilter) (out []spec.State) {
	stats := []core.Stats{bf.Stats()}
	if g, ok := bf.(interface{ MemberStats() []core.Stats }); ok {
		stats = g.MemberStats()
	}
	for _, s := range stats {
		out = append(out, spec.State{Order: s.Order, Hashes: s.Hashes, Idx: s.CurrentIndex, Now: s.Now, Next: s.NextRotation,
			Rotations: s.Rotations, Marks: s.Marks, APDSpared: s.APDSpared, Counters: s.Counters, DropProbability: s.APDDropProbability})
	}
	return out
}

// The filters rotate every 100 ms of trace time and spare part of the scan
// under a bandwidth APD policy, so marks, rotations and APD draws all depend
// on each filter seeing its packets in source order.
var testGeometry = []core.Option{core.WithVectors(4), core.WithHashes(3), core.WithRotateEvery(100 * time.Millisecond)}

func singleFilter(t *testing.T) *core.Filter {
	t.Helper()
	f, err := core.New(append([]core.Option{core.WithOrder(14), core.WithAPD(testAPD(t, 20e6))}, testGeometry...)...)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// shardedFilter's shards run the same policy behind faultPolicy, which is
// the only way into a shard from outside core: f is hit by every packet
// shard 1 shows its policy.
func shardedFilter(t *testing.T, shards int, f *fault) *core.Sharded {
	t.Helper()
	apd := &faultPolicy{DropPolicy: testAPD(t, 20e6), fault: f, clones: new(int)}
	bf, err := core.NewSharded(shards, append([]core.Option{core.WithOrder(14), core.WithAPD(apd)}, testGeometry...)...)
	if err != nil {
		t.Fatal(err)
	}
	return bf
}

// fleetClients is where the fleet's traces put their clients: a quarter each
// in 10.0/16, 10.1/16, 11.0/16 and 12.0/16.
const fleetClients = "10.0.0.0/15,11.0.0.0/16,12.0.0.0/16"

// fleetPrefixes are the fleet those traces run against: a /8 with a /16
// carved out of it (10.1.x.x must reach the carve-out — longest match), a
// third tenant's /16, and nobody for 12.0/16, whose frames the pump counts
// unrouted.
func fleetPrefixes() []packet.Prefix {
	return []packet.Prefix{
		packet.PrefixFrom(packet.AddrFrom4(10, 0, 0, 0), 8),
		packet.PrefixFrom(packet.AddrFrom4(10, 1, 0, 0), 16),
		packet.PrefixFrom(packet.AddrFrom4(11, 0, 0, 0), 16),
	}
}

// fleetConfig gives the three tenants their own seeds, and the carve-out and
// the third tenant their own geometry: every tenant is a bare filter.
func fleetConfig(t *testing.T) tenant.SetConfig {
	opts := func(seed uint64, more ...core.Option) []core.Option {
		return append(append([]core.Option{core.WithOrder(13), core.WithSeed(seed), core.WithAPD(testAPD(t, 5e6))}, testGeometry...), more...)
	}
	prefixes := fleetPrefixes()
	return tenant.SetConfig{Tenants: []tenant.Config{
		{ID: "wide", Prefix: prefixes[0], Options: opts(1)},
		{ID: "carved", Prefix: prefixes[1], Options: opts(2, core.WithOrder(12))},
		{ID: "third", Prefix: prefixes[2], Options: opts(3, core.WithHashes(4))},
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

// fault is something going wrong inside a judge, once: in its on-th call.
type fault struct {
	on    int64
	calls atomic.Int64
	do    func()
}

func (f *fault) hit() {
	if f != nil && f.calls.Add(1) == f.on {
		f.do()
	}
}

func panicOn(call int64) *fault {
	return &fault{on: call, do: func() { panic("injected filter fault") }}
}

// wedge blocks the judge inside its first call until released.
func wedge() (f *fault, entered chan struct{}, release func()) {
	entered, gate := make(chan struct{}), make(chan struct{})
	return &fault{on: 1, do: func() { close(entered); <-gate }}, entered, sync.OnceFunc(func() { close(gate) })
}

// faultyFilter is a single filter with a fault in its ProcessBatchInto, and
// nothing else to judge through: the embedded interface hides the halves.
type faultyFilter struct {
	statFilter
	fault *fault
}

func (f *faultyFilter) ProcessBatchInto(pkts []packet.Packet, out []filtering.Verdict) []filtering.Verdict {
	f.fault.hit()
	return f.statFilter.ProcessBatchInto(pkts, out)
}

// faultyHashed is a single filter with a fault in its ordered half.
type faultyHashed struct {
	hashedFilter
	fault *fault
}

func (f *faultyHashed) ProcessHashedInto(pkts []packet.Packet, pairs []uint64, out []filtering.Verdict) []filtering.Verdict {
	f.fault.hit()
	return f.hashedFilter.ProcessHashedInto(pkts, pairs, out)
}

// faultyFleet is a fleet with a fault in what the commit step calls.
type faultyFleet struct {
	*tenant.Set
	fault *fault
}

func (f *faultyFleet) ProcessHashedInto(pkts []packet.Packet, slots []int32, pairs []uint64, out []filtering.Verdict) []filtering.Verdict {
	f.fault.hit()
	return f.Set.ProcessHashedInto(pkts, slots, pairs, out)
}

// faultPolicy is an APD policy with a fault in shard 1's clone of it.
type faultPolicy struct {
	core.DropPolicy
	fault  *fault
	clones *int // handed out so far: shard i runs clone i
	shard  int
}

func (p *faultPolicy) ClonePolicy() core.DropPolicy {
	c := &faultPolicy{DropPolicy: p.DropPolicy.(core.PolicyCloner).ClonePolicy(), fault: p.fault, clones: p.clones, shard: *p.clones}
	*p.clones++
	return c
}

func (p *faultPolicy) ScaleForShards(n int) { p.DropPolicy.(core.PolicyShardScaler).ScaleForShards(n) }

// Observe observes pkt, then meets shard 1's fault.
func (p *faultPolicy) Observe(pkt packet.Packet) {
	p.DropPolicy.Observe(pkt)
	if p.shard == 1 {
		p.fault.hit()
	}
}

// testTraceOver synthesizes a pcap in memory: legitimate two-way sessions at
// connRate under a random scan at scanPPS, over span of virtual time, with
// the clients where clients says.
func testTraceOver(t *testing.T, clients string, scanPPS, connRate float64, span time.Duration) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, _, err := writeScanTrace(&buf, genConfig{
		scanPPS: scanPPS, connRate: connRate, duration: span, seed: 3, subnets: mustSubnets(clients),
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

type totalsOf struct{ out, in, pass, drop uint64 }

func totals(s pump.Snapshot) totalsOf { return totalsOf{s.Outgoing, s.Incoming, s.Passed, s.Dropped} }

func snapshotBytes(t *testing.T, bf core.Snapshottable) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := bf.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// traceFrames counts the frames of a trace.
func traceFrames(t *testing.T, trace []byte) (n uint64) {
	t.Helper()
	src, err := capture.NewReplayBytes(trace, 1)
	if err != nil {
		t.Fatal(err)
	}
	ring := make([]capture.Frame, 64)
	for {
		k, err := src.ReadBatch(ring)
		if n += uint64(k); err != nil {
			return n
		}
	}
}

// checkQuarantine: a fault in source batch 7 — in its decode (the source
// reports more frames than the ring holds) or, for a single filter, in what
// judges it (ProcessHashedInto, or a wrapper's ProcessBatchInto) —
// quarantines exactly that batch. The sequence keeps advancing, every other
// batch is judged in order — the filter ends where the model fed every batch
// but the seventh ends — and Run returns: no worker waits forever for a head
// that will never be published.
func checkQuarantine(t *testing.T, sk sink, where string, workers int) {
	const faultAt = 7 // late enough that every worker has buffers in flight
	wire := specWire(t)
	src := &spec.Source{Frames: wire.Frames}
	var f *fault
	if where == "decode" {
		src.LieAt = faultAt
	} else {
		f = panicOn(faultAt)
	}
	bf := sk.build(t, f)
	var logged atomic.Int64
	p := testPump(src, bf, sk, 64, workers, func(string, ...any) { logged.Add(1) })
	if err := p.Run(); err != nil {
		t.Fatalf("pump died on a contained panic: %v", err)
	}

	model, owner := sk.model(t), &spec.Group{Prefixes: sk.routed}
	var judged, lost uint64
	frame := 0
	for b, n := range src.Sizes {
		for i := frame; i < frame+n; i++ {
			switch pkt := wire.Pkts[i]; {
			case wire.Errs[i] != "" || owner.Route(pkt.Tuple, pkt.Dir) < 0:
			case b+1 == faultAt:
				lost++
			default:
				judged++
				model.Process(pkt)
			}
		}
		frame += n
	}
	// A judge's fault quarantines the batch's packets, a decode's its frames,
	// and the one the source made up.
	frames, counted := uint64(len(wire.Frames)), lost
	if where == "decode" {
		frames, counted = frames+1, uint64(src.Sizes[faultAt-1])+1
	}
	got := p.Snapshot()
	if got.QuarantinedBatches != 1 || logged.Load() != 1 || got.QuarantinedFrames != counted {
		t.Errorf("quarantined %d batches, %d frames, logged %d times; want 1, %d and 1", got.QuarantinedBatches, got.QuarantinedFrames, logged.Load(), counted)
	}
	if c := model.Counters(); got.Frames != frames || got.Outgoing+got.Incoming != judged || totals(got) != (totalsOf{c.OutPackets, c.InPackets, c.InPassed, c.InDropped}) {
		t.Errorf("%d frames, %+v judged; want %d, and all %d packets but the quarantined %d: the model's %+v", got.Frames, totals(got), frames, judged, lost, c)
	}
	if got, want := memberStates(bf), model.States(); !reflect.DeepEqual(got, want) {
		t.Errorf("the filter ends in\n  %+v\nthe model that never saw batch %d in\n  %+v", got, faultAt, want)
	}
}

// specWire is the harness's traffic as frames (spec.NewWire): twenty
// thousand packets, some forty rotations of testGeometry's.
func specWire(t *testing.T) *spec.Wire {
	t.Helper()
	wire, err := spec.NewWire([]spec.Op{{Pkts: spec.Trace(20_000, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

func TestWorkerPanicQuarantinesBatch(t *testing.T) {
	for _, where := range []string{"decode", "filter"} {
		for _, workers := range workerCounts {
			t.Run(fmt.Sprintf("%s/W=%d", where, workers), func(t *testing.T) { checkQuarantine(t, singleSink, where, workers) })
		}
	}
	t.Run("filter/plain", func(t *testing.T) { checkQuarantine(t, plainSink, "filter", 2) })
}

// TestRoutedPanicQuarantinesBatch: a source batch lost at the decode never
// reaches the filter; and a panic inside shard 1 — in the first packet it
// shows its APD policy — quarantines the whole source batch the commit step
// was judging, counted once, as a fleet's or a single filter's fault is: the
// filter ends where the model that met the same fault in the same batch
// ends, every other batch is judged, and Run drains the rest of the source.
// The quarantined batch's buffer goes back to its worker like any other: with
// one worker, whose buffers come round in turn, every batch is read into the
// buffer the batch workerBuffers before it was.
func TestRoutedPanicQuarantinesBatch(t *testing.T) {
	sk := shardsSink(2)
	wire := specWire(t)
	for _, workers := range workerCounts {
		t.Run(fmt.Sprintf("decode/W=%d", workers), func(t *testing.T) { checkQuarantine(t, sk, "decode", workers) })
		t.Run(fmt.Sprintf("W=%d", workers), func(t *testing.T) {
			src := &spec.Source{Frames: wire.Frames}
			bf := sk.build(t, panicOn(1))
			var logged atomic.Int64
			p := testPump(src, bf, sk, 64, workers, func(string, ...any) { logged.Add(1) })
			if err := p.Run(); err != nil {
				t.Fatalf("pump died on a contained panic: %v", err)
			}

			// The model meets the same fault in the same batch, in the same
			// packet — shard 1's first to pass, judged and observed but never
			// counted — and judges none after it in the batch.
			model, owner := sk.model(t), &spec.Group{Prefixes: sk.routed}
			var lost uint64
			frame := 0
			for _, n := range src.Sizes {
				var batch []packet.Packet
				for i := frame; i < frame+n; i++ {
					if pkt := wire.Pkts[i]; wire.Errs[i] == "" && owner.Route(pkt.Tuple, pkt.Dir) >= 0 {
						batch = append(batch, pkt)
					}
				}
				frame += n
				for _, pkt := range batch {
					shard1, counted := model.Route(pkt.Tuple, pkt.Dir) == 1, model.Members[1].Counters
					if model.Process(pkt) == filtering.Pass && shard1 && lost == 0 {
						model.Members[1].Counters, lost = counted, uint64(len(batch))
						break
					}
				}
			}
			got := p.Snapshot()
			if lost == 0 || lost > minBatch {
				t.Fatalf("the model lost %d packets to the fault, want one batch of at most %d", lost, minBatch)
			}
			if got.QuarantinedBatches != 1 || logged.Load() != 1 || got.QuarantinedFrames != lost {
				t.Errorf("quarantined %d batches, %d frames, logged %d times; want the one source batch of %d, once",
					got.QuarantinedBatches, got.QuarantinedFrames, logged.Load(), lost)
			}
			if c := model.Counters(); totals(got) != (totalsOf{c.OutPackets, c.InPackets, c.InPassed, c.InDropped}) {
				t.Errorf("pump %+v, the model %+v", totals(got), c)
			}
			if got, want := memberStates(bf), model.States(); !reflect.DeepEqual(got, want) {
				t.Errorf("shards\n  %+v\nthe model's\n  %+v", got, want)
			}
			refused := got.Unrouted
			for _, n := range got.DecodeErrors {
				refused += n
			}
			if sum := got.Outgoing + got.Incoming + got.QuarantinedFrames + refused; sum != got.Frames || got.Frames != uint64(len(wire.Frames)) {
				t.Errorf("%d frames of %d read, %d judged, quarantined or refused", got.Frames, len(wire.Frames), sum)
			}
			if workers > 1 {
				return
			}
			if len(src.Rings) <= 2*pumpBuffers {
				t.Fatalf("%d batches read: too few to see every buffer come round twice", len(src.Rings))
			}
			for i := pumpBuffers; i < len(src.Rings); i++ {
				if src.Rings[i] != src.Rings[i-pumpBuffers] {
					t.Fatalf("batch %d was not read into the buffer of batch %d: a buffer did not come back", i, i-pumpBuffers)
				}
			}
		})
	}
}

// slotVandal hands the fleet a slot it never issued, once.
type slotVandal struct {
	*tenant.Set
	calls, vandalizeOn int
}

func (v *slotVandal) ProcessHashedInto(pkts []packet.Packet, slots []int32, pairs []uint64, out []filtering.Verdict) []filtering.Verdict {
	if v.calls++; v.calls == v.vandalizeOn {
		slots[len(slots)/2] = -2
	}
	return v.Set.ProcessHashedInto(pkts, slots, pairs, out)
}

// TestFleetQuarantinesHostileSlot: a source batch lost at the decode
// never reaches the fleet; and a slot outside the fleet, riding in the batch
// buffer to the commit step, reaches the Set. The Set refuses the batch
// before touching a tenant, the judge's boundary quarantines exactly that
// batch's packets, and every other packet is judged: the fleet's counters
// hold what the pump counted judged, nothing of the quarantined batch.
func TestFleetQuarantinesHostileSlot(t *testing.T) {
	trace := testTraceOver(t, fleetClients, 40_000, 200, 200*time.Millisecond)
	for _, workers := range workerCounts {
		t.Run(fmt.Sprintf("decode/W=%d", workers), func(t *testing.T) { checkQuarantine(t, fleetSink, "decode", workers) })
		t.Run(fmt.Sprintf("W=%d", workers), func(t *testing.T) {
			replay, err := capture.NewReplayBytes(trace, 1)
			if err != nil {
				t.Fatal(err)
			}
			set := fleetSet(t)
			var logMu sync.Mutex
			var logged []string
			p := testPump(replay, &slotVandal{Set: set, vandalizeOn: 3}, fleetSink, 64, workers, func(format string, args ...any) {
				logMu.Lock()
				logged = append(logged, fmt.Sprintf(format, args...))
				logMu.Unlock()
			})
			if err := p.Run(); err != nil {
				t.Fatalf("pump died on a contained panic: %v", err)
			}
			got := p.Snapshot()
			// A batch of minBatch frames, less the ones that are nobody's.
			if got.QuarantinedBatches != 1 || got.QuarantinedFrames == 0 || got.QuarantinedFrames > minBatch {
				t.Errorf("quarantined %d batches, %d frames; want one batch of at most %d", got.QuarantinedBatches, got.QuarantinedFrames, minBatch)
			}
			if len(logged) != 1 || !strings.Contains(logged[0], "slot -2 outside [-1, 3)") {
				t.Errorf("quarantine log = %q, want one line naming the slot", logged)
			}
			judged := got.Outgoing + got.Incoming
			if sum := judged + got.Unrouted + got.QuarantinedFrames; sum != got.Frames || judged < 4*minBatch/2 {
				t.Errorf("%d frames read: %d judged, %d unrouted, %d quarantined", got.Frames, judged, got.Unrouted, got.QuarantinedFrames)
			}
			if c := set.Counters(); c.OutPackets != got.Outgoing || c.InPackets != got.Incoming || c.InPassed != got.Passed || c != got.Counters {
				t.Errorf("fleet counters %+v, pump counted %+v and shows %+v: the refused batch left a trace", c, totals(got), got.Counters)
			}
		})
	}
}

// checkBackPressure: a judge that blocks bounds the batches in flight — every
// worker ends up parked on its own free list, nobody reads — and the overload
// queue in front of the pump sheds, as it did when the pump was one loop.
func checkBackPressure(t *testing.T, sk sink, workers int) {
	trace := testTraceOver(t, sk.clients, 40_000, 200, 500*time.Millisecond)
	// Six passes: more than the queue holds, and a queue of more than every
	// buffer of four workers.
	const loops, queue = 6, 32768
	total := loops * traceFrames(t, trace)
	replay, err := capture.NewReplayBytes(trace, loops)
	if err != nil {
		t.Fatal(err)
	}
	buf := resilience.NewBuffer(replay, resilience.BufferConfig{Capacity: queue, SnapLen: 256})
	defer buf.Close()
	src := &spec.Source{Source: buf}
	f, entered, release := wedge()
	defer release()
	p := testPump(src, sk.build(t, f), sk, 64, workers, nil)
	done := make(chan error, 1)
	go func() { done <- p.Run() }()

	<-entered
	// The judge holds the commit lock: the other workers read until their
	// buffers are all published behind it, then park.
	parked, inFlight := uint64(workers-1), workers*pumpBuffers
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		s := p.Snapshot()
		if s.BufferWaits >= parked && buf.Stats().Shed > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d workers ran out of buffers, %d frames shed", s.BufferWaits, parked, buf.Stats().Shed)
		}
	}
	// The waits are counted since the start, so one may be from before the
	// pipeline backed up for good: the reads have stopped when none is made
	// for 20 ms.
	reads := src.Reads.Load()
	for deadline := time.Now().Add(10 * time.Second); ; {
		time.Sleep(20 * time.Millisecond)
		again := src.Reads.Load()
		if again == reads {
			break
		}
		if reads = again; time.Now().After(deadline) {
			t.Fatalf("%d batches read and counting with the judge blocked", reads)
		}
	}
	if reads > int64(inFlight) {
		t.Errorf("%d batches read with the judge blocked, want them to stop at no more than %d", reads, inFlight)
	}
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	st, got := buf.Stats(), p.Snapshot()
	if st.Accepted+st.Shed != total || got.Frames != st.Accepted {
		t.Errorf("%d frames in the trace: %d accepted + %d shed, %d reached the pump", total, st.Accepted, st.Shed, got.Frames)
	}
	if judged := got.Outgoing + got.Incoming + got.Unrouted; judged != st.Accepted {
		t.Errorf("%d packets judged or unrouted of %d accepted", judged, st.Accepted)
	}
}

func TestWorkerBackPressure(t *testing.T) {
	for _, workers := range workerCounts {
		t.Run(fmt.Sprintf("W=%d", workers), func(t *testing.T) { checkBackPressure(t, singleSink, workers) })
	}
	for _, sk := range allSinks[1:] {
		for _, workers := range workerCounts {
			t.Run(fmt.Sprintf("%s/W=%d", sk.name, workers), func(t *testing.T) { checkBackPressure(t, sk, workers) })
		}
	}
}

// closeAfter closes the source it wraps from inside its nth read, the
// way SIGTERM's src.Close() lands between two batches of a replay.
type closeAfter struct {
	capture.Source
	reads int
}

func (c *closeAfter) ReadBatch(frames []capture.Frame) (int, error) {
	if c.reads--; c.reads == 0 {
		c.Source.Close()
	}
	return c.Source.ReadBatch(frames)
}

// checkDrainBeforeSnapshot: a source closed mid-replay ends Run only after
// every batch read was judged — the workers joined, nothing left
// published — so every frame is accounted for, and a snapshot taken when Run returns
// restores to exactly that state.
func checkDrainBeforeSnapshot(t *testing.T, sk sink, workers int) {
	replay, err := capture.NewReplayBytes(testTraceOver(t, sk.clients, 40_000, 200, 500*time.Millisecond), 1000)
	if err != nil {
		t.Fatal(err)
	}
	bf := sk.build(t, nil)
	p := testPump(&closeAfter{Source: replay, reads: 100}, bf, sk, 512, workers, nil)
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	got := p.Snapshot()
	if got.Frames != 99*512 {
		t.Fatalf("%d frames read before the close, want 99 full batches", got.Frames)
	}
	if sum := got.Outgoing + got.Incoming + got.Unrouted; sum != got.Frames {
		t.Errorf("%d frames read, %d judged or unrouted", got.Frames, sum)
	}
	if c := bf.Counters(); c.OutPackets != got.Outgoing || c.InPackets != got.Incoming || c.InPassed != got.Passed || c != got.Counters {
		t.Errorf("filter counters %+v, pump counted %+v and shows %+v", c, totals(got), got.Counters)
	}
	snap := snapshotBytes(t, bf)
	restored := sk.restore(t, bytes.NewReader(snap))
	was, now := bf.Stats(), restored.Stats()
	// The APD window and its spared count are not part of a snapshot;
	// everything else is.
	was.APDDropProbability, now.APDDropProbability = 0, 0
	was.APDSpared, now.APDSpared = 0, 0
	if !reflect.DeepEqual(was, now) || !bytes.Equal(snap, snapshotBytes(t, restored)) {
		t.Errorf("restored %+v\n  pump's  %+v", now, was)
	}
}

func TestWorkerDrainBeforeSnapshot(t *testing.T) {
	for _, workers := range workerCounts {
		t.Run(fmt.Sprintf("W=%d", workers), func(t *testing.T) { checkDrainBeforeSnapshot(t, singleSink, workers) })
	}
}

func TestShardsDrainBeforeSnapshot(t *testing.T) {
	for _, workers := range workerCounts {
		t.Run(fmt.Sprintf("W=%d", workers), func(t *testing.T) { checkDrainBeforeSnapshot(t, shardsSink(2), workers) })
	}
}

func TestFleetDrainBeforeSnapshot(t *testing.T) {
	for _, workers := range workerCounts {
		t.Run(fmt.Sprintf("W=%d", workers), func(t *testing.T) { checkDrainBeforeSnapshot(t, fleetSink, workers) })
	}
}

// TestWorkerFlushesShortBatch: one frame from a live source gets its verdict
// with no further traffic — a short read is committed and judged as it is,
// not held back for 511 more frames.
func TestWorkerFlushesShortBatch(t *testing.T) {
	frame := encodeFrame(t, packet.Packet{Time: time.Second,
		Tuple: packet.Tuple{Src: packet.AddrFrom4(10, 0, 0, 5), Dst: packet.AddrFrom4(198, 51, 100, 7),
			SrcPort: 4000, DstPort: 80, Proto: packet.TCP},
		Dir: packet.Outgoing, Flags: packet.SYN, Length: 60})
	for _, sk := range allSinks {
		t.Run(sk.name, func(t *testing.T) {
			lb := capture.NewLoopback()
			bf := sk.build(t, nil)
			p := testPump(lb, bf, sk, 512, 2, nil)
			done := make(chan error, 1)
			go func() { done <- p.Run() }()
			if err := lb.WriteFrame(capture.Frame{Time: time.Second, Data: frame}); err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(10 * time.Second); p.Snapshot().Outgoing != 1; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the frame waits for more: no verdict without further traffic")
				}
			}
			lb.Close()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if c := bf.Counters(); c.OutPackets != 1 || c.InPackets != 0 || p.Snapshot().Counters != c {
				t.Errorf("the filter judged %+v, want the one frame", c)
			}
		})
	}
}

// steadySource serves one batch of frames over and over, limit times.
type steadySource struct {
	batch []capture.Frame
	limit int
}

func (s *steadySource) ReadBatch(frames []capture.Frame) (int, error) {
	if s.limit == 0 {
		return 0, io.EOF
	}
	s.limit--
	return copy(frames, s.batch), nil
}

func (s *steadySource) Close() error { return nil }

// checkZeroAllocsSteadyState pins the hot-loop contract end to end for a
// pump running free: buffer reuse + zero-copy decode + publish + commit +
// the sink's judging must not allocate per source batch once
// warmed up. Workers running free cannot be stepped (internal/pump's tests
// step one, for the exact zero), so the check is what another thousand
// batches add to a run's mallocs — a run allocates to start: goroutines,
// the verdict buffers, the Set's scratch.
func checkZeroAllocsSteadyState(t *testing.T, sk sink) {
	batch := make([]capture.Frame, 64)
	for i := range batch {
		data := encodeFrame(t, packet.Packet{
			Tuple: packet.Tuple{Src: packet.AddrFrom4(10, byte(i%2), 0, byte(i)), Dst: packet.AddrFrom4(198, 51, 100, 7),
				SrcPort: uint16(4000 + i), DstPort: 80, Proto: packet.TCP},
			Dir: packet.Outgoing, Flags: packet.SYN, Length: 60})
		batch[i] = capture.Frame{Time: time.Duration(i) * time.Millisecond, Data: data, OrigLen: len(data)}
	}
	for _, workers := range []int{1, 2} {
		mallocs := func(batches int) uint64 {
			p := testPump(&steadySource{batch: batch, limit: batches}, sk.build(t, nil), sk, 64, workers, nil)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := p.Run(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if got := p.Snapshot().Outgoing; got != uint64(len(batch)*batches) {
				t.Fatalf("judged %d packets of %d", got, len(batch)*batches)
			}
			return after.Mallocs - before.Mallocs
		}
		const short, more = 200, 1000
		// The fewest of a few tries: a goroutine the runtime starts on its own (a
		// GC worker) allocates too, and not in every run.
		perBatch := math.Inf(1)
		for try := 0; try < 5 && perBatch > 0; try++ {
			a, b := mallocs(short), mallocs(short+more)
			perBatch = min(perBatch, max(0, float64(b)-float64(a))/more)
		}
		if perBatch >= 0.01 {
			t.Errorf("W=%d: the pump allocates %.3f times per source batch", workers, perBatch)
		}
	}
}

func TestPumpZeroAllocsSteadyState(t *testing.T)       { checkZeroAllocsSteadyState(t, singleSink) }
func TestShardsPumpZeroAllocsSteadyState(t *testing.T) { checkZeroAllocsSteadyState(t, shardsSink(2)) }
func TestFleetPumpZeroAllocsSteadyState(t *testing.T)  { checkZeroAllocsSteadyState(t, fleetSink) }

// slowFilter takes its time over every batch, so the decoders stay ahead of
// the judge: the head of the sequence is always published and whoever holds
// the commit lock never lets go of it.
type slowFilter struct {
	filtering.BatchFilter
	perBatch time.Duration
}

func (s *slowFilter) ProcessBatchInto(pkts []packet.Packet, out []filtering.Verdict) []filtering.Verdict {
	time.Sleep(s.perBatch)
	return s.BatchFilter.ProcessBatchInto(pkts, out)
}

// TestStatsWhilePumping: the pump's half of /stats and /metrics shows the
// filter while the pump judges through it, and never touches it. These
// filters are plain and unlocked — a single one, or a fleet's tenants: under
// -race a handler's read of their Counters fails on the first scrape — and no
// judge's lock is a place to wait either: with the filter as the bottleneck
// (judge-bound) the commit lock is never free. A scrape reads the copies the
// judges leave after every batch, whole, and answers while they are busy.
// (The bitmap's block, which does read the filter, under its lock, is
// TestControlPlaneWhilePumping's.)
func TestStatsWhilePumping(t *testing.T) {
	for _, tc := range []struct {
		name     string
		sink     sink
		workers  int
		perBatch time.Duration
	}{
		{"W=1", singleSink, 1, 0}, {"W=2", singleSink, 2, 0}, {"W=2/judge-bound", singleSink, 2, time.Millisecond},
		{"fleet", fleetSink, 2, 0}, {"shards=2", shardsSink(2), 2, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			replay, err := capture.NewReplayBytes(testTraceOver(t, tc.sink.clients, 40_000, 200, 200*time.Millisecond), 1_000_000)
			if err != nil {
				t.Fatal(err)
			}
			inner := tc.sink.build(t, nil)
			var bf filtering.BatchFilter = inner
			if tc.perBatch > 0 {
				bf = &slowFilter{BatchFilter: inner, perBatch: tc.perBatch}
			}
			p := testPump(replay, bf, tc.sink, 64, tc.workers, nil)
			srv := httptest.NewServer(newMux(time.Now(), p.Snapshot, &controlPlane{}))
			defer srv.Close()
			defer replay.Close() // first: a scrape stuck behind the judge ends with the replay
			client := srv.Client()
			// Thousands of batch times: a scrape that waits for the judge to
			// run out of work waits for the end of the replay.
			client.Timeout = 5 * time.Second
			done := make(chan error, 1)
			go func() { done <- p.Run() }()

			var last statsSnapshot
			for scrape := 0; scrape < 50 || last.Filter.Counters.InPackets == 0; scrape++ {
				for _, path := range []string{"/stats", "/metrics"} {
					resp, err := client.Get(srv.URL + path)
					if err != nil {
						t.Fatal(err)
					}
					body, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil || resp.StatusCode != 200 {
						t.Fatalf("GET %s: %d %v", path, resp.StatusCode, err)
					}
					if path == "/stats" {
						was := last.Filter.Counters
						last = statsSnapshot{}
						if err := json.Unmarshal(body, &last); err != nil {
							t.Fatalf("/stats JSON: %v", err)
						}
						if c := last.Filter.Counters; c.InPackets != c.InPassed+c.InDropped || c.InPackets < was.InPackets || c.OutPackets < was.OutPackets {
							t.Fatalf("/stats read the filter mid-batch: %+v after %+v", c, was)
						}
					}
				}
			}
			if last.Filter.Name != inner.Name() || last.Filter.MemoryBytes != inner.MemoryBytes() {
				t.Errorf("/stats filter = %q, %d bytes", last.Filter.Name, last.Filter.MemoryBytes)
			}
			replay.Close()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			got := p.Snapshot()
			if tc.perBatch > 0 && got.BufferWaits == 0 {
				t.Error("the slow filter never had the workers wait for a buffer: not judge-bound")
			}
			if judged := got.Outgoing + got.Incoming + got.Unrouted; judged != got.Frames {
				t.Errorf("%d frames read, %d judged or unrouted when Run returned", got.Frames, judged)
			}
			c := inner.Counters()
			if c.OutPackets+c.InPackets+got.Unrouted != got.Frames {
				t.Errorf("filter judged %d packets of %d frames", c.OutPackets+c.InPackets, got.Frames)
			}
			if got.Counters != c {
				t.Errorf("/stats shows %+v after the last batch, the filter holds %+v", got.Counters, c)
			}
		})
	}
}

// checkObservability: a judge stuck in its filter flips /healthz by the name
// of the goroutine it is stuck on — the worker that holds the commit lock —
// while the workers parked behind it stay idle and no endpoint waits for it;
// and the pump's series appear on /stats and /metrics, with no lane's.
func checkObservability(t *testing.T, sk sink, workers int) {
	// Four passes: more than every buffer of four workers holds.
	replay, err := capture.NewReplayBytes(testTraceOver(t, sk.clients, 40_000, 200, 300*time.Millisecond), 4)
	if err != nil {
		t.Fatal(err)
	}
	f, entered, release := wedge()
	p := testPump(replay, sk.build(t, f), sk, 64, workers, nil)
	var clock atomic.Int64
	wd := resilience.NewWatchdog(func() time.Duration { return time.Duration(clock.Load()) })
	p.Watch(wd, 100*time.Millisecond)
	srv := httptest.NewServer(newMux(time.Now(), p.Snapshot, &controlPlane{health: resilience.NewHealth(wd)}))
	defer srv.Close()
	defer release() // first: a scrape stuck behind the wedge ends with it
	client := srv.Client()
	client.Timeout = 5 * time.Second
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := client.Get(srv.URL + path)
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

	done := make(chan error, 1)
	started := time.Now()
	go func() { done <- p.Run() }()
	<-entered // one judge is inside the filter and stays there
	wedgedAt := time.Now()
	// Where the pipeline backs up to: every worker but the one that judges.
	parked := uint64(workers - 1)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if s := p.Snapshot(); s.BufferWaits >= parked {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the workers never ran out of buffers behind the wedged judge")
		}
	}
	// The waits are counted since the start, so one may be from before the
	// pipeline backed up for good: everybody is parked when no frame is read
	// for 20 ms.
	for frames, deadline := p.Snapshot().Frames, time.Now().Add(10*time.Second); ; {
		time.Sleep(20 * time.Millisecond)
		again := p.Snapshot().Frames
		if again == frames {
			break
		}
		if frames = again; time.Now().After(deadline) {
			t.Fatal("the workers keep reading behind the wedged judge")
		}
	}
	clock.Store(int64(time.Second))
	// The judge's locks are held and stay held: no endpoint waits for them.
	for _, path := range []string{"/stats", "/metrics"} {
		if code, _ := get(path); code != 200 {
			t.Errorf("GET %s behind a wedged judge = %d", path, code)
		}
	}
	code, body := get("/healthz")
	if code != 503 || !strings.Contains(body, "worker") {
		t.Errorf("/healthz behind a wedged judge = %d %q, want a worker stalled", code, body)
	}
	if strings.Count(body, "worker") != 1 {
		t.Errorf("/healthz = %q, want one of %d workers stalled: the rest are idle", body, workers)
	}
	wedgedFor := time.Since(wedgedAt)
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	_, body = get("/stats")
	var snap statsSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/stats JSON: %v", err)
	}
	if snap.Pump.Workers != workers || strings.Contains(body, `"lanes"`) {
		t.Fatalf("/stats pump = %+v, or it has lanes: %s", snap.Pump, body)
	}
	if workers > 1 && snap.Pump.BufferWaits == 0 {
		t.Errorf("/stats pump = %+v, want buffer waits behind a wedged judge", snap.Pump)
	}
	// The commit lock is held while the filter judges — the wedge (a second
	// of the watchdog's clock, tens of ms of this one) included.
	if busy := snap.Pump.CommitBusy; busy <= 0 || busy > time.Since(started).Seconds() || busy < wedgedFor.Seconds() {
		t.Errorf("/stats pump.commit_busy_seconds = %g over %v with the judge wedged for %v", busy, time.Since(started), wedgedFor)
	}
	// Turns at the source are one at a time: whatever W, they fit in the wall.
	if busy := snap.Pump.SourceBusy; busy <= 0 || busy > time.Since(started).Seconds() {
		t.Errorf("/stats pump.source_busy_seconds = %g over %v", busy, time.Since(started))
	}
	_, metrics := get("/metrics")
	wants := []string{
		fmt.Sprintf("bitmapfilter_pump_workers %d", workers),
		fmt.Sprintf("bitmapfilter_pump_foreign_commits_total %d", snap.Pump.ForeignCommits),
		fmt.Sprintf("bitmapfilter_pump_buffer_waits_total %d", snap.Pump.BufferWaits),
		fmt.Sprintf("bitmapfilter_pump_commit_busy_seconds_total %g", snap.Pump.CommitBusy),
		fmt.Sprintf("bitmapfilter_pump_source_busy_seconds_total %g", snap.Pump.SourceBusy),
		`bitmapfilter_resilience_probe_stalled{probe="worker0"} 0`,
		`bitmapfilter_resilience_probe_stalled{probe="batch"} 0`,
	}
	for _, want := range wants {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(metrics, `{lane="`) || strings.Contains(metrics, `probe="lane`) {
		t.Error("/metrics has a lane's series")
	}
	// Per-packet latency runs from a batch's read to its last verdict: the
	// wedge, and the wait behind it, are inside.
	if snap.LatencyP99Ns <= 0 || snap.Frames != snap.Outgoing+snap.Incoming+snap.Unrouted {
		t.Errorf("/stats: p99 %d ns, %d frames, %d out, %d in, %d unrouted", snap.LatencyP99Ns, snap.Frames, snap.Outgoing, snap.Incoming, snap.Unrouted)
	}
}

func TestWorkerObservability(t *testing.T) {
	for _, workers := range workerCounts {
		t.Run(fmt.Sprintf("W=%d", workers), func(t *testing.T) { checkObservability(t, singleSink, workers) })
	}
}

func TestShardsAndFleetObservability(t *testing.T) {
	for name, sk := range map[string]sink{"shards": shardsSink(2), "fleet": fleetSink} {
		t.Run(name, func(t *testing.T) {
			for _, workers := range workerCounts {
				t.Run(fmt.Sprintf("W=%d", workers), func(t *testing.T) { checkObservability(t, sk, workers) })
			}
		})
	}
}
