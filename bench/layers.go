package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"bitmapfilter/internal/bitvector"
	"bitmapfilter/internal/capture"
	"bitmapfilter/internal/core"
	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/flowtable"
	"bitmapfilter/internal/hashfam"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/resilience"
	"bitmapfilter/internal/tenant"
	"bitmapfilter/internal/xrand"
)

var epoch = time.Now() //bf:allow wallclock the benchmark's stopwatch starts here

// now is the benchmark's only clock: monotonic time since process start.
//
//bf:allow wallclock a benchmark measures wall time by definition; everything it times takes virtual time from the trace
func now() time.Duration { return time.Since(epoch) }

// layer names a span. The string is the module the timed calls belong to.
type layer uint8

const (
	spanBatch layer = iota
	spanRead
	spanDecode
	spanClassify
	spanProcess
	spanRoute
	spanKeyHash
	spanTouch
	spanClear
	spanPlain
	numLayers
)

var layerNames = [numLayers]string{
	spanBatch:    "batch",
	spanRead:     "capture.read",
	spanDecode:   "packet.decode",
	spanClassify: "packet.classify",
	spanProcess:  "filter.process",
	spanRoute:    "tenant.route",
	spanKeyHash:  "hashfam.key_hash",
	spanTouch:    "bitvector.touch",
	spanClear:    "bitvector.clear",
	spanPlain:    "core.plain_process",
}

// span is one timed call into a layer. Spans of one batch share its id;
// parent indexes the span that caused this one (-1 for a batch span).
type span struct {
	layer      layer
	batch      uint32
	parent     int32
	start, end time.Duration
}

// spanLog keeps spans in a preallocated slice; nothing is written out until
// the run ends.
type spanLog struct {
	spans []span
	batch uint32 // id of the batch in flight
	top   int32  // index of its batch span
}

func newSpanLog(capacity int) *spanLog {
	return &spanLog{spans: make([]span, 0, capacity)}
}

// add records a child of the batch span in flight and returns its index.
func (l *spanLog) add(ly layer, start, end time.Duration) int32 {
	l.spans = append(l.spans, span{layer: ly, batch: l.batch, parent: l.top, start: start, end: end})
	return int32(len(l.spans) - 1)
}

// selfTimes sums, per layer, each span's duration minus what its child
// spans cover, and counts the spans.
func (l *spanLog) selfTimes() (self [numLayers]time.Duration, count [numLayers]int) {
	for _, s := range l.spans {
		d := s.end - s.start
		self[s.layer] += d
		count[s.layer]++
		if s.parent >= 0 {
			self[l.spans[s.parent].layer] -= d
		}
	}
	return self, count
}

// durations returns every span duration of one layer, in record order.
func (l *spanLog) durations(ly layer) []time.Duration {
	var out []time.Duration
	for _, s := range l.spans {
		if s.layer == ly {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// writeTo dumps the log as one JSON object per line.
func (l *spanLog) writeTo(w io.Writer, pass string) error {
	for i, s := range l.spans {
		if _, err := fmt.Fprintf(w, `{"pass":%q,"id":%d,"layer":%q,"batch":%d,"parent":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			pass, i, layerNames[s.layer], s.batch, s.parent, int64(s.start), int64(s.end)); err != nil {
			return err
		}
	}
	return nil
}

// processFunc is ProcessBatchInto of whatever judges the batch.
type processFunc func(pkts []packet.Packet, out []filtering.Verdict) []filtering.Verdict

// pipeline is the in-process twin of bfwall's pump: read a batch from the
// source, decode it, classify direction against the client subnets, judge
// it, tally — back to back per batch, on reusable buffers. The one
// difference is that decode and classify are two loops over the batch
// rather than one, so each can carry a span.
type pipeline struct {
	src      capture.Source
	subnets  []packet.Prefix
	process  processFunc
	ring     []capture.Frame
	pkts     []packet.Packet
	verdicts []filtering.Verdict

	// observe, when set, sees every judged batch (the oracles hang here).
	observe func(pkts []packet.Packet, verdicts []filtering.Verdict)

	totals totals
	bytes  uint64
	done   bool
	// Wall time inside run and the frames and judged packets it covered,
	// apart for tracing off [0] and on [1]: one pipeline alternates between
	// the two so that both see the same memory and the same filter.
	busy   [2]time.Duration
	frames [2]uint64
	judged [2]uint64
}

func newPipeline(trace []byte, loops int, subnets []packet.Prefix, process processFunc) (*pipeline, error) {
	src, err := capture.NewReplay(bytes.NewReader(trace), loops)
	if err != nil {
		return nil, err
	}
	return &pipeline{
		src:      src,
		subnets:  subnets,
		process:  process,
		ring:     capture.NewRing(batchSize, 0),
		pkts:     make([]packet.Packet, 0, batchSize),
		verdicts: make([]filtering.Verdict, 0, batchSize),
	}, nil
}

func inside(subnets []packet.Prefix, a packet.Addr) bool {
	for _, s := range subnets {
		if s.Contains(a) {
			return true
		}
	}
	return false
}

// run pumps batches until the frame total reaches limit or the source is
// exhausted, recording spans when spans is not nil, and accounts the wall
// time spent. It can be called again to continue.
func (p *pipeline) run(limit uint64, spans *spanLog) error {
	traced, mode := spans != nil, 0
	if traced {
		mode = 1
	}
	begin, frames0, judged0 := now(), p.totals.Frames, p.totals.judged()
	defer func() {
		p.busy[mode] += now() - begin
		p.frames[mode] += p.totals.Frames - frames0
		p.judged[mode] += p.totals.judged() - judged0
	}()
	var t0, t1, t2, t3, t4 time.Duration
	for !p.done && p.totals.Frames < limit {
		if traced {
			spans.batch++
			spans.top = -1
			spans.top = spans.add(spanBatch, 0, 0)
			t0 = now()
		}
		n, err := p.src.ReadBatch(p.ring)
		if err != nil {
			if !errors.Is(err, io.EOF) {
				return err
			}
			p.done = true
		}
		if traced {
			t1 = now()
		}

		frames := p.ring[:n]
		pkts := p.pkts[:0]
		for i := range frames {
			p.bytes += uint64(frames[i].OrigLen)
			if frames[i].Truncated() {
				p.totals.Truncated++
			}
			m := len(pkts)
			pkts = pkts[:m+1]
			if err := packet.DecodeInto(&pkts[m], frames[i].Data); err != nil {
				pkts = pkts[:m]
				p.totals.DecodeErrs++
				continue
			}
			pkts[m].Time = frames[i].Time
			if frames[i].Truncated() {
				pkts[m].Length = frames[i].OrigLen
			}
		}
		if traced {
			t2 = now()
		}

		m := 0
		for i := range pkts {
			switch {
			case inside(p.subnets, pkts[i].Tuple.Src):
				pkts[i].Dir = packet.Outgoing
			case inside(p.subnets, pkts[i].Tuple.Dst):
				pkts[i].Dir = packet.Incoming
			default:
				p.totals.Unrouted++
				continue
			}
			if m != i {
				pkts[m] = pkts[i]
			}
			m++
		}
		pkts = pkts[:m]
		if traced {
			t3 = now()
		}

		p.verdicts = p.process(pkts, p.verdicts)
		if traced {
			t4 = now()
		}

		var out, pass uint64
		for i := range pkts {
			if pkts[i].Dir == packet.Outgoing {
				out++
			} else if p.verdicts[i] == filtering.Pass {
				pass++
			}
		}
		in := uint64(len(pkts)) - out
		p.totals.Frames += uint64(n)
		p.totals.Out += out
		p.totals.In += in
		p.totals.Pass += pass
		p.totals.Drop += in - pass
		if p.observe != nil {
			p.observe(pkts, p.verdicts)
		}
		if traced {
			// The stage spans were buffered in locals so that tracing costs
			// clock reads only; append them, then close the batch span.
			spans.add(spanRead, t0, t1)
			spans.add(spanDecode, t1, t2)
			spans.add(spanClassify, t2, t3)
			spans.add(spanProcess, t3, t4)
			top := &spans.spans[spans.top]
			top.start, top.end = t0, now()
		}
	}
	return nil
}

// judged is the number of packets that reached the filter.
func (t totals) judged() uint64 { return t.Out + t.In }

// buildFilter constructs the workload's filter the way bfwall's flags do and
// returns its ProcessBatchInto plus its introspection.
func buildFilter(p prepared) (processFunc, func() core.Stats, error) {
	w := p.w
	if w.tenants > 0 {
		set, err := buildFleet(p)
		if err != nil {
			return nil, nil, err
		}
		return set.ProcessBatchInto, set.Stats, nil
	}
	opts := plainOptions(w.order)
	if w.shards > 1 {
		opts = append(opts, core.WithShards(w.shards))
	}
	f, err := core.Build(opts...)
	if err != nil {
		return nil, nil, err
	}
	return f.ProcessBatchInto, f.Stats, nil
}

func plainOptions(order uint) []core.Option {
	return []core.Option{
		core.WithOrder(order),
		core.WithVectors(vectors),
		core.WithHashes(hashes),
		core.WithRotateEvery(rotateEvery),
	}
}

func buildFleet(p prepared) (*tenant.Set, error) {
	doc, err := os.ReadFile(p.fleetPath)
	if err != nil {
		return nil, err
	}
	cfg, err := tenant.ParseConfig(doc)
	if err != nil {
		return nil, err
	}
	return tenant.NewSet(cfg)
}

// oracle checks the filter per packet against the exact filter it
// approximates, from both sides: nothing flowtable.NewNaive((k−1)·Δt)
// passes may be dropped (a false negative is a bug), and what the bitmap
// passes although NewNaive(k·Δt) drops is a false positive — the paper's
// penetration, counted, not forbidden.
type oracle struct {
	lower, upper *flowtable.Naive
	budget       uint64 // packets still to check

	checked        uint64
	falseNegatives uint64
	falsePositives uint64
	upperDrops     uint64
}

func newOracle(budget uint64) *oracle {
	return &oracle{
		lower:  flowtable.NewNaive((vectors - 1) * rotateEvery),
		upper:  flowtable.NewNaive(vectors * rotateEvery),
		budget: budget,
	}
}

func (o *oracle) observe(pkts []packet.Packet, verdicts []filtering.Verdict) {
	for i := range pkts {
		if o.budget == 0 {
			return
		}
		o.budget--
		o.checked++
		lo := o.lower.Process(pkts[i])
		hi := o.upper.Process(pkts[i])
		if pkts[i].Dir == packet.Outgoing {
			continue
		}
		if lo == filtering.Pass && verdicts[i] == filtering.Drop {
			o.falseNegatives++
		}
		if hi == filtering.Drop {
			o.upperDrops++
			if verdicts[i] == filtering.Pass {
				o.falsePositives++
			}
		}
	}
}

// err reports a false negative: the one oracle finding that is a bug.
func (o *oracle) err() error {
	if o.falseNegatives == 0 {
		return nil
	}
	return fmt.Errorf("%d false negatives in %d packets checked against the exact filter", o.falseNegatives, o.checked)
}

// reference is the verified in-process run a timed bfwall run is compared
// with: the same trace and loops through the library's own layers, the
// first oracleLoops of them checked per packet.
type reference struct {
	totals totals
	oracle *oracle
}

func runReference(p prepared, trace []byte, loops, oracleLoops int) (reference, error) {
	process, _, err := buildFilter(p)
	if err != nil {
		return reference{}, err
	}
	pl, err := newPipeline(trace, loops, p.w.subnets(), process)
	if err != nil {
		return reference{}, err
	}
	o := newOracle(uint64(oracleLoops) * p.trace.Frames)
	pl.observe = o.observe
	if err := pl.run(^uint64(0), nil); err != nil {
		return reference{}, err
	}
	return reference{totals: pl.totals, oracle: o}, nil
}

// shadow prices the layers that live inside ProcessBatchInto, where no
// outside span can reach: it redoes a batch's key packing + hashing, then
// its bit touches on vectors it owns (rotated on packet time exactly as
// Algorithm 1 does, so reads meet the same fill the filter's would), and on
// workloads whose filter is not a plain core.Filter also runs one on the
// same packets, which is the base the lane and tenant overheads are taken
// against.
type shadow struct {
	spans *spanLog
	fam   *hashfam.Family
	vecs  []*bitvector.Vector
	cur   int
	next  time.Duration // next rotation
	idxs  []uint64      // hashes indexes per packet of the batch, flat

	plain *core.Filter // nil when the workload's own filter is one
	pout  []filtering.Verdict
	set   *tenant.Set // nil unless a tenant workload

	passes uint64
}

func newShadow(p prepared, spans *spanLog) (*shadow, error) {
	s := &shadow{
		spans: spans,
		fam:   hashfam.MustNew(hashes, 0),
		next:  rotateEvery,
		idxs:  make([]uint64, 0, batchSize*hashes),
	}
	for i := 0; i < vectors; i++ {
		v, err := bitvector.New(p.w.order)
		if err != nil {
			return nil, err
		}
		s.vecs = append(s.vecs, v)
	}
	if p.w.tenants > 0 || p.w.shards > 1 {
		// One filter holding what the fleet holds in total: 64 × 2^16 = 2^22.
		order := p.w.order
		for n := 1; n < p.w.tenants; n *= 2 {
			order++
		}
		f, err := core.New(plainOptions(order)...)
		if err != nil {
			return nil, err
		}
		s.plain = f
	}
	if p.w.tenants > 0 {
		set, err := buildFleet(p)
		if err != nil {
			return nil, err
		}
		s.set = set
	}
	return s, nil
}

func (s *shadow) process(pkts []packet.Packet, out []filtering.Verdict) []filtering.Verdict {
	out = filtering.GrowVerdicts(out, len(pkts))

	if s.set != nil {
		t0 := now()
		for i := range pkts {
			client := pkts[i].Tuple.Dst
			if pkts[i].Dir == packet.Outgoing {
				client = pkts[i].Tuple.Src
			}
			_ = s.set.Lookup(client) // nothing is unrouted: the pipeline classified these
		}
		s.spans.add(spanRoute, t0, now())
	}

	t0 := now()
	idxs := s.idxs[:0]
	for i := range pkts {
		var lo, hi uint64
		if pkts[i].Dir == packet.Outgoing {
			lo, hi = pkts[i].Tuple.OutgoingKeyWords()
		} else {
			lo, hi = pkts[i].Tuple.IncomingKeyWords()
		}
		idxs = s.fam.IndexesFixed(idxs, lo, hi, packet.KeySize)
	}
	t1 := now()
	s.spans.add(spanKeyHash, t0, t1)

	touch := s.spans.add(spanTouch, t1, t1)
	for i := range pkts {
		for pkts[i].Time >= s.next {
			s.rotate(touch)
		}
		ix := idxs[i*hashes : (i+1)*hashes]
		switch {
		case pkts[i].Dir == packet.Outgoing:
			bitvector.SetAllVectors(s.vecs, ix)
			out[i] = filtering.Pass
		case s.vecs[s.cur].TestAll(ix):
			out[i] = filtering.Pass
			s.passes++
		default:
			out[i] = filtering.Drop
		}
	}
	s.spans.spans[touch].end = now()
	s.idxs = idxs

	if s.plain != nil {
		t0 := now()
		s.pout = s.plain.ProcessBatchInto(pkts, s.pout)
		s.spans.add(spanPlain, t0, now())
	}
	return out
}

// rotate is Algorithm 1's b.rotate; the clear gets its own span, a child of
// the touch span it interrupts, so touch self time excludes it.
func (s *shadow) rotate(parent int32) {
	last := s.cur
	s.cur = (s.cur + 1) % len(s.vecs)
	t0 := now()
	s.vecs[last].Reset()
	i := s.spans.add(spanClear, t0, now())
	s.spans.spans[i].parent = parent
	s.next += rotateEvery
}

// gate turns the unpaced replay into a closed loop with a window in front of
// resilience.Buffer: it hands the intake goroutine more frames only while
// fewer than window are unconsumed, so the buffer never reaches its shed
// watermark and every frame crosses the queue.
type gate struct {
	capture.Source
	window   int64
	produced int64
	consumed *atomic.Int64
}

func (g *gate) ReadBatch(frames []capture.Frame) (int, error) {
	for g.produced-g.consumed.Load() > g.window {
		runtime.Gosched()
	}
	n, err := g.Source.ReadBatch(frames)
	g.produced += int64(n)
	return n, err
}

// bufferRun is the resilience.Buffer hand-off priced on its own: replay →
// Buffer → a reader that discards, two goroutines.
type bufferRun struct {
	frames   uint64
	elapsed  time.Duration
	maxDepth int
	shed     uint64
}

const bufferCapacity = 8192 // bfwall -queue default

func runBuffer(trace []byte, loops int) (bufferRun, error) {
	var r bufferRun
	rp, err := capture.NewReplay(bytes.NewReader(trace), loops)
	if err != nil {
		return r, err
	}
	var consumed atomic.Int64
	buf := resilience.NewBuffer(&gate{Source: rp, window: bufferCapacity / 2, consumed: &consumed},
		resilience.BufferConfig{Capacity: bufferCapacity})
	defer buf.Close()
	ring := capture.NewRing(batchSize, 0)
	start := now()
	for {
		n, err := buf.ReadBatch(ring)
		consumed.Add(int64(n))
		r.frames += uint64(n)
		if err != nil {
			if !errors.Is(err, io.EOF) {
				return r, err
			}
			break
		}
	}
	r.elapsed = now() - start
	st := buf.Stats()
	r.maxDepth, r.shed = st.MaxDepth, st.Shed
	return r, nil
}

// layerRun is everything the traced half measures for one workload.
type layerRun struct {
	pipe     *pipeline // tracing off and on by turns
	traced   *spanLog
	stats    core.Stats // of pipe's filter
	mallocs  uint64     // over pipe's whole run
	shadowed *spanLog
	judged   uint64 // packets the shadow saw
	// Passes of the shadow vectors; when the workload's own filter is a
	// plain core.Filter (shadowExact) they must equal that filter's.
	shadowPasses uint64
	shadowExact  bool
	buffer       bufferRun
}

// traceSlice is how many frames the pipeline runs before tracing flips: a
// few milliseconds, short against the scheduling disturbances of a shared
// machine, so both modes take an equal share of them.
const traceSlice = 8 * batchSize

// runLayers makes the in-process passes: 2·loops passes of the trace through
// one pipeline with tracing off or on for traceSlice frames at a time, so
// that memory layout, filter state and machine drift cancel out of the ratio
// of the two; then loops passes through the shadow, and loops through
// resilience.Buffer.
func runLayers(p prepared, trace []byte, loops int) (*layerRun, error) {
	r := &layerRun{}
	subnets := p.w.subnets()
	batches := int(uint64(loops)*p.trace.Frames/batchSize) + loops + 1

	process, stats, err := buildFilter(p)
	if err != nil {
		return nil, err
	}
	if r.pipe, err = newPipeline(trace, 2*loops, subnets, process); err != nil {
		return nil, err
	}
	r.traced = newSpanLog(2 * 5 * batches) // the coin may give tracing more than half
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	// A run too short for 16 full slices still gets both modes. After one
	// slice of each, a coin picks the mode: strict alternation aliases with
	// the trace (client_mix_o28 is 30.01 slices long, so odd and even slices
	// would replay the same stretches of it on every pass, and they differ
	// in cost by several percent).
	slice := min(traceSlice, max(batchSize, 2*uint64(loops)*p.trace.Frames/16))
	coin := xrand.New(1)
	for i := uint64(1); !r.pipe.done; i++ {
		spans := r.traced
		if i == 2 || i > 2 && coin.Bool(0.5) {
			spans = nil
		}
		if err := r.pipe.run(i*slice, spans); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&after)
	r.mallocs = after.Mallocs - before.Mallocs
	r.stats = stats()

	r.shadowed = newSpanLog(12*batches + 64)
	sh, err := newShadow(p, r.shadowed)
	if err != nil {
		return nil, err
	}
	pl, err := newPipeline(trace, loops, subnets, sh.process)
	if err != nil {
		return nil, err
	}
	if err := pl.run(^uint64(0), r.shadowed); err != nil {
		return nil, err
	}
	r.judged = pl.totals.judged()
	// One explicit clear, so bitvector.clear_us has a sample even when the
	// traced frames span no rotation.
	r.shadowed.batch++
	r.shadowed.top = -1
	sh.rotate(-1)
	r.shadowPasses, r.shadowExact = sh.passes, sh.plain == nil

	if r.buffer, err = runBuffer(trace, loops); err != nil {
		return nil, err
	}
	if r.buffer.frames != pl.totals.Frames {
		return nil, fmt.Errorf("resilience.Buffer delivered %d of %d frames", r.buffer.frames, pl.totals.Frames)
	}
	return r, nil
}
