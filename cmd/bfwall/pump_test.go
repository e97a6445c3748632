package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bitmapfilter/internal/capture"
	"bitmapfilter/internal/core"
	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/pcap"
	"bitmapfilter/internal/pump"
	"bitmapfilter/internal/resilience"
	"bitmapfilter/internal/tenant"
)

// One table: every behaviour of the data plane is one body below, run over
// the three filters bfwall builds (a single filter, -shards 2, a tenant
// fleet) at W = 1, 2, 4, through what the daemon itself uses of
// internal/pump — New, Watch, Run, Snapshot. The Worker* names are the
// single filter's rows of it, the Shards*, Lane* and Laned* names the
// shards' and the Fleet* names the fleet's (the routed filters' rows kept
// the names they had while a lane goroutine judged them). A single filter
// comes two ways: as bfwall builds it (the workers hash, the commit step
// only touches bits), and behind a wrapper that offers ProcessBatchInto
// alone (the filter hashes for itself).
// What has to step a worker by hand is in internal/pump's own tests.

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
	name   string
	routes bool // a core.Group behind a router: sharded, or a fleet
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
	// hashed: the pump takes the filter's two halves apart (internal/pump's
	// hashedFilter). plain, when set, builds what the synchronous reference
	// runs in build's place.
	hashed bool
	plain  func(t *testing.T) statFilter
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
	fleetSink = sink{name: "fleet", routes: true, clients: fleetClients, told: "192.0.2.0/24", routed: fleetPrefixes(),
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
	return sink{name: name, hashed: hashed, clients: "10.0.0.0/8", told: "10.0.0.0/8", routed: mustSubnets("10.0.0.0/8"),
		plain: func(t *testing.T) statFilter { return singleFilter(t) },
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
	return sink{name: fmt.Sprintf("shards=%d", n), routes: true, clients: "10.0.0.0/8", told: "10.0.0.0/8", routed: mustSubnets("10.0.0.0/8"),
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

func testAPD(t *testing.T, bps float64) core.DropPolicy {
	t.Helper()
	apd, err := core.NewBandwidthPolicy(bps, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return apd
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

func (p *faultPolicy) Observe(pkt packet.Packet) {
	if p.shard == 1 {
		p.fault.hit()
	}
	p.DropPolicy.Observe(pkt)
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

// hostileTrace is trace with a frame the filter must never see after every
// 97th: garbage (a truncated decode error), a fragment (refused by class)
// and transit traffic touching no client subnet (unrouted), in turn.
func hostileTrace(t *testing.T, trace []byte) []byte {
	t.Helper()
	client, server := packet.AddrFrom4(10, 0, 0, 5), packet.AddrFrom4(198, 51, 100, 7)
	frag := encodeFrame(t, packet.Packet{Tuple: packet.Tuple{Src: server, Dst: client, SrcPort: 80, DstPort: 4000, Proto: packet.TCP},
		Dir: packet.Incoming, Length: 60})
	frag[packet.EthernetHeaderLen+6] = 0x20 // MF
	refixIPChecksum(frag)
	transit := encodeFrame(t, packet.Packet{Tuple: packet.Tuple{Src: server, Dst: packet.AddrFrom4(203, 0, 113, 9), SrcPort: 1, DstPort: 2, Proto: packet.TCP},
		Dir: packet.Incoming, Length: 60})
	extra := [][]byte{{1, 2, 3}, frag, transit}

	src, err := capture.NewReplayBytes(trace, 1)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	w, err := pcap.NewWriter(&out)
	if err != nil {
		t.Fatal(err)
	}
	ring := make([]capture.Frame, 64)
	for frames := 0; ; {
		n, err := src.ReadBatch(ring)
		for _, f := range ring[:n] {
			if werr := w.WriteRecord(pcap.Record{Time: f.Time, Data: f.Data}); werr != nil {
				t.Fatal(werr)
			}
			if frames++; frames%97 == 0 {
				if werr := w.WriteRecord(pcap.Record{Time: f.Time, Data: extra[frames/97%len(extra)]}); werr != nil {
					t.Fatal(werr)
				}
			}
		}
		if err != nil {
			return out.Bytes()
		}
	}
}

// intakeOf is the reference front half: what the pump's decode step makes of
// every frame of a trace, without the pump.
type intakeOf struct {
	pkts []packet.Packet
	// upTo[i] is how many packets the first i frames yield, so the packets
	// of frames [a, b) are pkts[upTo[a]:upTo[b]].
	upTo     []int
	unrouted uint64
	decErr   map[string]uint64
}

func (in *intakeOf) frames() int { return len(in.upTo) - 1 }

func referenceIntake(t *testing.T, trace []byte, routed []packet.Prefix) *intakeOf {
	t.Helper()
	table := packet.NewPrefixTable(routed)
	src, err := capture.NewReplayBytes(trace, 1)
	if err != nil {
		t.Fatal(err)
	}
	in := &intakeOf{upTo: []int{0}, decErr: map[string]uint64{}}
	ring := make([]capture.Frame, 64)
	for {
		n, err := src.ReadBatch(ring)
		for _, f := range ring[:n] {
			var pkt packet.Packet
			if derr := packet.DecodeInto(&pkt, f.Data); derr != nil {
				switch {
				case errors.Is(derr, packet.ErrTruncated):
					in.decErr["truncated"]++
				case errors.Is(derr, packet.ErrFragmented):
					in.decErr["fragmented"]++
				default:
					t.Fatalf("unexpected decode error in a test trace: %v", derr)
				}
			} else if dir, slot := table.ClassifySlot(pkt.Tuple); slot < 0 {
				in.unrouted++
			} else {
				pkt.Time, pkt.Dir = f.Time, dir
				in.pkts = append(in.pkts, pkt)
			}
			in.upTo = append(in.upTo, len(in.pkts))
		}
		if err != nil {
			return in
		}
	}
}

// scriptedSource wraps a source and records the size of every batch it
// delivers — the cut the filter must see. It can deliver ragged short
// batches, yield or sleep at random inside ReadBatch so the workers fall
// out of step and batches are published out of source order, and lie about
// one batch's length (a source bug the decode boundary has to contain).
// The pump reads it under its source lock, so it needs none of its own.
type scriptedSource struct {
	capture.Source
	rng    *rand.Rand
	ragged bool
	jitter bool
	lieAt  int // the batch (from 1) reported one frame longer than the ring
	sizes  []int
	rings  []*capture.Frame // per batch, the buffer it was read into
	reads  atomic.Int64
}

func (s *scriptedSource) ReadBatch(frames []capture.Frame) (int, error) {
	want := len(frames)
	if s.ragged {
		want = 1 + s.rng.Intn(len(frames))
	}
	if s.jitter {
		switch s.rng.Intn(4) {
		case 0:
			runtime.Gosched()
		case 1:
			time.Sleep(time.Duration(s.rng.Intn(200)) * time.Microsecond)
		}
	}
	n, err := s.Source.ReadBatch(frames[:want])
	if n > 0 {
		s.sizes = append(s.sizes, n)
		s.rings = append(s.rings, &frames[0])
		if int(s.reads.Add(1)) == s.lieAt {
			return len(frames) + 1, err
		}
	}
	return n, err
}

var sourceShapes = map[string]func(*scriptedSource){
	"batch37": func(*scriptedSource) {}, // divides nothing
	"ragged":  func(s *scriptedSource) { s.ragged = true },
	"jitter":  func(s *scriptedSource) { s.ragged, s.jitter = true, true },
}

// judgedBatch is one ProcessBatchInto call as recordingFilter saw it.
type judgedBatch struct {
	n     int
	first time.Duration // the first packet's timestamp; -1 for an empty batch
}

func batchOf(pkts []packet.Packet) judgedBatch {
	if len(pkts) == 0 {
		return judgedBatch{0, -1}
	}
	return judgedBatch{len(pkts), pkts[0].Time}
}

// recordingFilter records the batches a single filter's pump judges, in
// commit order. Every call is made under the commit lock, and the workers
// that made them are joined before Run returns.
type recordingFilter struct {
	filtering.BatchFilter
	calls []judgedBatch
}

func (r *recordingFilter) ProcessBatchInto(pkts []packet.Packet, out []filtering.Verdict) []filtering.Verdict {
	r.calls = append(r.calls, batchOf(pkts))
	return r.BatchFilter.ProcessBatchInto(pkts, out)
}

// recordingHashed records the same of a filter judged through its ordered
// half, and how many of the calls came that way.
type recordingHashed struct {
	*recordingFilter
	inner  hashedFilter
	hashed int
}

func (r *recordingHashed) Hasher() *core.Hasher { return r.inner.Hasher() }

func (r *recordingHashed) ProcessHashedInto(pkts []packet.Packet, pairs []uint64, out []filtering.Verdict) []filtering.Verdict {
	r.calls = append(r.calls, batchOf(pkts))
	r.hashed++
	return r.inner.ProcessHashedInto(pkts, pairs, out)
}

// goroutineID is the calling goroutine's number, from its stack's header.
func goroutineID() uint64 {
	var buf [64]byte
	id, err := strconv.ParseUint(strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1], 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

func firstDifference(a, b []judgedBatch) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

type totalsOf struct{ out, in, pass, drop uint64 }

func (c *totalsOf) add(pkts []packet.Packet, verdicts []filtering.Verdict) {
	for i := range pkts {
		switch {
		case pkts[i].Dir == packet.Outgoing:
			c.out++
		case verdicts[i] == filtering.Pass:
			c.in++
			c.pass++
		default:
			c.in++
			c.drop++
		}
	}
}

func totals(s pump.Snapshot) totalsOf { return totalsOf{s.Outgoing, s.Incoming, s.Passed, s.Dropped} }

func snapshotBytes(t *testing.T, bf core.Snapshottable) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := bf.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reference is the synchronous form every sink is checked against: one
// goroutine, a fresh filter of the sink's kind, one ProcessBatchInto per
// source batch in the cut the pump's source delivered — all of them but
// batch skip (from 1; 0 skips none).
func reference(t *testing.T, sk sink, in *intakeOf, sizes []int, skip int) (ref statFilter, want totalsOf, calls []judgedBatch) {
	t.Helper()
	if sk.plain != nil {
		ref = sk.plain(t)
	} else {
		ref = sk.build(t, nil)
	}
	var verdicts []filtering.Verdict
	frame := 0
	for i, n := range sizes {
		chunk := in.pkts[in.upTo[frame]:in.upTo[frame+n]]
		frame += n
		if i+1 == skip {
			continue
		}
		calls = append(calls, batchOf(chunk))
		verdicts = ref.ProcessBatchInto(chunk, verdicts)
		want.add(chunk, verdicts)
	}
	if frame != in.frames() {
		t.Fatalf("the source delivered %d frames of %d", frame, in.frames())
	}
	return ref, want, calls
}

// checkMatchesReference is the differential: the pump over sk at W workers
// against the synchronous reference. Every tally must be equal, a single
// filter must be handed the source's batches in source order with no gap or
// repeat, and the two filters must end byte for byte in the same state — the
// commit step fed the sharded filter or the Set what the reference feeds it.
// With one worker there is no goroutine but the one that calls Run, and that
// is where the filter is judged: there is no lane.
func checkMatchesReference(t *testing.T, sk sink, trace []byte, in *intakeOf, shape func(*scriptedSource), workers int) {
	replay, err := capture.NewReplayBytes(trace, 1)
	if err != nil {
		t.Fatal(err)
	}
	src := &scriptedSource{Source: replay, rng: rand.New(rand.NewSource(int64(workers)))}
	shape(src)
	judgedOn := make(chan uint64, 1)
	bf := sk.build(t, &fault{on: 1, do: func() { judgedOn <- goroutineID() }})
	rec := &recordingHashed{recordingFilter: &recordingFilter{BatchFilter: bf}}
	var judge filtering.BatchFilter = bf
	if !sk.routes {
		judge = rec.recordingFilter
		if h, ok := bf.(hashedFilter); ok {
			rec.inner, judge = h, rec
		}
	}
	p := testPump(src, judge, sk, 37, workers, nil)
	runner := goroutineID()
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	select {
	case on := <-judgedOn:
		if workers == 1 && on != runner {
			t.Errorf("one worker, and the filter was judged on goroutine %d, not on Run's %d: a lane", on, runner)
		}
	default:
		t.Error("the filter was judged without reaching the hook in its first call")
	}

	ref, want, wantCalls := reference(t, sk, in, src.sizes, 0)
	if st := ref.Stats(); want.pass == 0 || want.drop == 0 || st.Rotations == 0 || st.APDSpared == 0 {
		t.Fatalf("trace exercises too little: %+v, %d rotations, %d spared", want, st.Rotations, st.APDSpared)
	}
	got := p.Snapshot()
	if got.Frames != uint64(in.frames()) || totals(got) != want || got.Unrouted != in.unrouted {
		t.Errorf("pump: %d frames %+v, %d unrouted; reference: %d frames %+v, %d unrouted",
			got.Frames, totals(got), got.Unrouted, in.frames(), want, in.unrouted)
	}
	for i, class := range pump.DecodeClasses {
		if got.DecodeErrors[i] != in.decErr[class] {
			t.Errorf("decode errors (%s) = %d, reference %d", class, got.DecodeErrors[i], in.decErr[class])
		}
	}
	if !sk.routes && !reflect.DeepEqual(rec.calls, wantCalls) {
		t.Errorf("the filter saw %d batches, the source delivered %d; first difference at %d",
			len(rec.calls), len(wantCalls), firstDifference(rec.calls, wantCalls))
	}
	if sk.hashed != (rec.hashed > 0) || (sk.hashed && rec.hashed != len(rec.calls)) {
		t.Errorf("%d of %d batches were judged through the ordered half alone (the sink's filter offers it: %v)", rec.hashed, len(rec.calls), sk.hashed)
	}
	if got, want := bf.Stats(), ref.Stats(); !reflect.DeepEqual(got, want) {
		t.Errorf("filter state\n  pump:      %+v\n  reference: %+v", got, want)
	}
	if !bytes.Equal(snapshotBytes(t, bf), snapshotBytes(t, ref)) {
		t.Error("the pump's filter and the reference's snapshot to different bytes")
	}
	if got.Workers != workers {
		t.Fatalf("%d workers, want %d", got.Workers, workers)
	}
	if workers == 1 && got.ForeignCommits != 0 {
		t.Errorf("one worker made %d foreign commits", got.ForeignCommits)
	}
	if got.Counters != bf.Counters() {
		t.Errorf("shown counters %+v, the filter holds %+v", got.Counters, bf.Counters())
	}
}

// matchReference runs the differential over a scan-shaped and a two-way
// trace, named as the sink's family always named them. The shape of the
// source and W are for rows to choose: it calls run once per row.
func matchReference(t *testing.T, scan, twoWay string, sinks []sink, rows func(t *testing.T, sk sink, run func(t *testing.T, shape string, workers int))) {
	for name, conf := range map[string]struct{ scanPPS, connRate float64 }{scan: {40_000, 25}, twoWay: {500, 4000}} {
		t.Run(name, func(t *testing.T) {
			trace := hostileTrace(t, testTraceOver(t, sinks[0].clients, conf.scanPPS, conf.connRate, 500*time.Millisecond))
			in := referenceIntake(t, trace, sinks[0].routed)
			if in.unrouted == 0 || in.decErr["truncated"] == 0 || in.decErr["fragmented"] == 0 {
				t.Fatalf("the hostile frames did not land: %d unrouted, decode errors %v", in.unrouted, in.decErr)
			}
			for _, sk := range sinks {
				rows(t, sk, func(t *testing.T, shape string, workers int) {
					checkMatchesReference(t, sk, trace, in, sourceShapes[shape], workers)
				})
			}
		})
	}
}

// jitterRows are the routed filters' rows: W = 1, 2, 4 behind the source
// that makes the workers publish out of order.
func jitterRows(t *testing.T, run func(*testing.T, string, int)) {
	for _, workers := range workerCounts {
		t.Run(fmt.Sprintf("W=%d", workers), func(t *testing.T) { run(t, "jitter", workers) })
	}
}

// TestWorkerPumpMatchesInlineReference: a single filter behind the pump —
// hashed by the workers, judged under the commit lock — against the inline
// loop the workers replaced, behind every source shape; the same filter
// behind a wrapper that hashes for itself, against that same reference.
func TestWorkerPumpMatchesInlineReference(t *testing.T) {
	matchReference(t, "scan", "two_way", []sink{singleSink, plainSink}, func(t *testing.T, sk sink, run func(*testing.T, string, int)) {
		if sk.name != singleSink.name {
			t.Run(sk.name, func(t *testing.T) { jitterRows(t, run) })
			return
		}
		for shape := range sourceShapes {
			for _, workers := range workerCounts {
				t.Run(fmt.Sprintf("%s/W=%d", shape, workers), func(t *testing.T) { run(t, shape, workers) })
			}
		}
	})
}

// TestShardsMatchShardedReference: ShardOf's slots and the workers' pairs
// riding in the batch buffer to the commit step's in-order judge, against a
// second sharded filter's ProcessBatchInto per source batch.
func TestShardsMatchShardedReference(t *testing.T) {
	matchReference(t, "scan_flood", "client_mix", []sink{shardsSink(2), shardsSink(4)}, func(t *testing.T, sk sink, run func(*testing.T, string, int)) {
		t.Run(sk.name, func(t *testing.T) { jitterRows(t, run) })
	})
}

// TestFleetMatchesSetReference: slots and the workers' pairs riding in the
// batch buffer to the commit step's in-order judge, against a second Set's
// ProcessBatchInto per source batch, which looks every packet up and hashes
// it itself.
func TestFleetMatchesSetReference(t *testing.T) {
	matchReference(t, "scan", "two_way", []sink{fleetSink}, func(t *testing.T, _ sink, run func(*testing.T, string, int)) {
		jitterRows(t, run)
	})
}

// checkQuarantine: a fault in source batch 7 — in its decode (the source
// reports more frames than the ring holds) or, for a single filter, in what
// judges it (ProcessHashedInto, or a wrapper's ProcessBatchInto) — quarantines
// exactly that batch. The sequence keeps
// advancing, every other batch is judged in order — the filter ends where a
// reference that never saw batch 7 ends — and Run returns: no worker waits
// forever for a head that will never be published.
func checkQuarantine(t *testing.T, sk sink, where string, workers int) {
	const faultAt = 7 // late enough that every worker has buffers in flight
	trace := testTraceOver(t, sk.clients, 40_000, 200, 500*time.Millisecond)
	in := referenceIntake(t, trace, sk.routed)
	replay, err := capture.NewReplayBytes(trace, 1)
	if err != nil {
		t.Fatal(err)
	}
	src := &scriptedSource{Source: replay}
	var f *fault
	if where == "decode" {
		src.lieAt = faultAt
	} else {
		f = panicOn(faultAt)
	}
	bf := sk.build(t, f)
	var logged atomic.Int64
	p := testPump(src, bf, sk, 64, workers, func(string, ...any) { logged.Add(1) })
	if err := p.Run(); err != nil {
		t.Fatalf("pump died on a contained panic: %v", err)
	}

	frame := 0
	for _, n := range src.sizes[:faultAt-1] {
		frame += n
	}
	lost := src.sizes[faultAt-1]
	lostPkts := uint64(in.upTo[frame+lost] - in.upTo[frame])
	frames, counted := uint64(in.frames()), uint64(lost)
	if where == "decode" {
		frames, counted = frames+1, counted+1 // the frame the source made up
	}
	got := p.Snapshot()
	if got.QuarantinedBatches != 1 || logged.Load() != 1 || got.QuarantinedFrames != counted {
		t.Errorf("quarantined %d batches, %d frames, logged %d times; want 1, %d and 1", got.QuarantinedBatches, got.QuarantinedFrames, logged.Load(), counted)
	}
	if judged := got.Outgoing + got.Incoming; got.Frames != frames || judged != uint64(len(in.pkts))-lostPkts {
		t.Errorf("%d frames, %d judged; want %d and all %d packets but the quarantined %d", got.Frames, judged, frames, len(in.pkts), lostPkts)
	}
	ref, want, _ := reference(t, sk, in, src.sizes, faultAt)
	if totals(got) != want || !bytes.Equal(snapshotBytes(t, bf), snapshotBytes(t, ref)) {
		t.Errorf("pump %+v, a reference that never saw batch %d %+v; or they snapshot to different bytes", totals(got), faultAt, want)
	}
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
// filter ends where a reference that met the same fault in the same batch
// ends, every other batch is judged, and Run drains the rest of the source.
// The quarantined batch's buffer goes back to its worker like any other: with
// one worker, whose buffers come round in turn, every batch is read into the
// buffer the batch workerBuffers before it was.
func TestRoutedPanicQuarantinesBatch(t *testing.T) {
	sk := shardsSink(2)
	trace := testTraceOver(t, sk.clients, 40_000, 200, 200*time.Millisecond)
	in := referenceIntake(t, trace, sk.routed)
	for _, workers := range workerCounts {
		t.Run(fmt.Sprintf("decode/W=%d", workers), func(t *testing.T) { checkQuarantine(t, sk, "decode", workers) })
		t.Run(fmt.Sprintf("W=%d", workers), func(t *testing.T) {
			replay, err := capture.NewReplayBytes(trace, 1)
			if err != nil {
				t.Fatal(err)
			}
			src := &scriptedSource{Source: replay}
			bf := sk.build(t, panicOn(1))
			var logged atomic.Int64
			p := testPump(src, bf, sk, 64, workers, func(string, ...any) { logged.Add(1) })
			if err := p.Run(); err != nil {
				t.Fatalf("pump died on a contained panic: %v", err)
			}

			// The reference meets the same fault in the same batch, in the
			// same packet: it judges what came before it and none after.
			ref, lost := sk.build(t, panicOn(1)), 0
			var want totalsOf
			var verdicts []filtering.Verdict
			frame := 0
			for _, n := range src.sizes {
				chunk := in.pkts[in.upTo[frame]:in.upTo[frame+n]]
				frame += n
				func() {
					defer func() {
						if recover() != nil {
							lost += len(chunk)
						}
					}()
					verdicts = ref.ProcessBatchInto(chunk, verdicts)
					want.add(chunk, verdicts)
				}()
			}
			got := p.Snapshot()
			if lost == 0 || lost > minBatch {
				t.Fatalf("the reference lost %d packets to the fault, want one batch of at most %d", lost, minBatch)
			}
			if got.QuarantinedBatches != 1 || logged.Load() != 1 || got.QuarantinedFrames != uint64(lost) {
				t.Errorf("quarantined %d batches, %d frames, logged %d times; want the one source batch of %d, once",
					got.QuarantinedBatches, got.QuarantinedFrames, logged.Load(), lost)
			}
			if totals(got) != want || !bytes.Equal(snapshotBytes(t, bf), snapshotBytes(t, ref)) {
				t.Errorf("pump %+v, the reference %+v; or they snapshot to different bytes", totals(got), want)
			}
			if sum := got.Outgoing + got.Incoming + got.QuarantinedFrames; sum != got.Frames || got.Frames != uint64(in.frames()) {
				t.Errorf("%d frames of %d read, %d judged or quarantined", got.Frames, in.frames(), sum)
			}
			if workers > 1 {
				return
			}
			if len(src.rings) <= 2*pumpBuffers {
				t.Fatalf("%d batches read: too few to see every buffer come round twice", len(src.rings))
			}
			for i := pumpBuffers; i < len(src.rings); i++ {
				if src.rings[i] != src.rings[i-pumpBuffers] {
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

// TestFleetLaneQuarantinesHostileSlot: a source batch lost at the decode
// never reaches the fleet; and a slot outside the fleet, riding in the batch
// buffer to the commit step, reaches the Set. The Set refuses the batch
// before touching a tenant, the judge's boundary quarantines exactly that
// batch's packets, and every other packet is judged: the fleet's counters
// hold what the pump counted judged, nothing of the quarantined batch.
func TestFleetLaneQuarantinesHostileSlot(t *testing.T) {
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
	total := loops * uint64(referenceIntake(t, trace, sk.routed).frames())
	replay, err := capture.NewReplayBytes(trace, loops)
	if err != nil {
		t.Fatal(err)
	}
	buf := resilience.NewBuffer(replay, resilience.BufferConfig{Capacity: queue, SnapLen: 256})
	defer buf.Close()
	src := &scriptedSource{Source: buf}
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
	reads := src.reads.Load()
	for deadline := time.Now().Add(10 * time.Second); ; {
		time.Sleep(20 * time.Millisecond)
		again := src.reads.Load()
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

func TestLanesDrainBeforeSnapshot(t *testing.T) {
	for _, workers := range workerCounts {
		t.Run(fmt.Sprintf("W=%d", workers), func(t *testing.T) { checkDrainBeforeSnapshot(t, shardsSink(2), workers) })
	}
}

func TestFleetLaneDrainBeforeSnapshot(t *testing.T) {
	for _, workers := range workerCounts {
		t.Run(fmt.Sprintf("W=%d", workers), func(t *testing.T) { checkDrainBeforeSnapshot(t, fleetSink, workers) })
	}
}

// TestLaneFlushesShortBatch: one frame from a live source gets its verdict
// with no further traffic — a short read is committed and judged as it is,
// not held back for 511 more frames.
func TestLaneFlushesShortBatch(t *testing.T) {
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

func TestPumpZeroAllocsSteadyState(t *testing.T)          { checkZeroAllocsSteadyState(t, singleSink) }
func TestLanedPumpZeroAllocsSteadyState(t *testing.T)     { checkZeroAllocsSteadyState(t, shardsSink(2)) }
func TestFleetLanePumpZeroAllocsSteadyState(t *testing.T) { checkZeroAllocsSteadyState(t, fleetSink) }

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

func TestLaneObservability(t *testing.T) {
	for name, sk := range map[string]sink{"shards": shardsSink(2), "fleet": fleetSink} {
		t.Run(name, func(t *testing.T) {
			for _, workers := range workerCounts {
				t.Run(fmt.Sprintf("W=%d", workers), func(t *testing.T) { checkObservability(t, sk, workers) })
			}
		})
	}
}
