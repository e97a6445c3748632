package main

import (
	"sync/atomic"
	"time"

	"bitmapfilter/internal/capture"
	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/resilience"
)

// The lane pipeline. Over a sharded filter the pump's goroutine is the
// dispatcher — read, decode, classify, route, append the packet to its
// lane's pending sub-batch — and one goroutine per shard judges: it takes
// full sub-batches off a FIFO, runs its own shard's ProcessBatchInto,
// counts the verdicts and hands the buffer back. No verdict returns to
// the dispatcher.
//
// Lane i is fed, in arrival order, exactly the packets Sharded.LaneOf
// routes to shard i: the subsequence Sharded.ProcessBatchInto would hand
// that shard. The shards share no state, so every counter, mark, rotation
// and APD draw equals the synchronous form's; only the interleaving
// between shards differs, and nothing observes it.
//
// A tenant fleet runs on the same pipeline with one lane whose filter is
// the whole Set: the dispatcher decodes straight into the pending
// sub-batch (one lane, nothing to route by) and the slot its classify
// found rides beside each packet, so the Set regroups by tenant without
// looking anything up. The lane sees every packet in arrival order, so it
// is the Set judging source batches cut at different places — and a
// tenant's filter does not care where its caller's batches end.
//
// A single filter does not get a lane. Handing 40 B per packet to another
// core costs 15–20 ns a frame: a fleet's ≈150 ns frame absorbs that and
// runs ×1.6 for +7 % CPU per frame; scan_flood's ≈90 ns frame ran ×1.28
// for +34 % CPU, past the benchmark's bound on CPU (DESIGN.md §11). It runs
// behind symmetric workers instead (workers.go), where a packet is judged
// on the core that decoded it unless that worker was overtaken.

// minSubBatch is the smallest sub-batch a lane is handed, however small
// -batch (the source read) is: a hand-off is a channel send and, when the
// lane has caught up, a goroutine wake-up, and below a few hundred packets
// that costs more than the second core gives back. With sub-batch = -batch
// a fleet read, against the inline pump on the tenant_fleet trace (medians
// of six alternating rounds), -batch 32 6.22M → 5.16M frames/s (CPU 184 →
// 258 ns/frame) and -batch 128 7.41M → 8.07M (160 → 187 ns); with this
// floor 6.22M → 12.89M (184 → 153 ns) and 7.41M → 16.58M (160 → 136 ns),
// and -shards 2 on scan_flood at -batch 32 went 6.74M → 10.90M (177 → 145
// ns). It costs no latency: a live source that has run dry returns a short
// batch, which flushes (dispatch), and one that keeps returning full
// batches fills 512 packets at the rate it is backlogged.
const minSubBatch = 512

// laneBuffers is how many sub-batches a lane owns: one
// filling at the dispatcher, one being judged, the rest queued between
// them to ride out the lanes falling out of step. When all are in flight
// the dispatcher blocks — that is the pipeline's back-pressure. Measured
// on scan_flood_2lane: four is ≈8 % slower (the dispatcher keeps running
// dry), sixteen no faster and half a MiB more resident.
const laneBuffers = 8

// subBatch is one lane's share of one or more source batches.
type subBatch struct {
	pkts []packet.Packet
	// slots[i] is the tenant slot of pkts[i]; allocated (to cap(pkts)) only
	// for a fleet's lane.
	slots []int32
	// opened is when the source batch that put the first packet in was
	// read: the latency reservoir measures from here to the last verdict,
	// queue wait included.
	opened time.Time
}

// routedFilter is a filter that judges by slots the dispatcher already
// found (*tenant.Set).
type routedFilter interface {
	ProcessRoutedInto(pkts []packet.Packet, slots []int32, out []filtering.Verdict) []filtering.Verdict
}

type lane struct {
	// bf judges a shard's lane; routed, when set, a fleet's, and bf is nil.
	bf       filtering.BatchFilter
	routed   routedFilter
	pending  *subBatch           // filling; the dispatcher's
	verdicts []filtering.Verdict // the lane goroutine's

	// queue carries full sub-batches to the lane, free carries judged ones
	// back. Both hold laneBuffers, every buffer the lane owns, so only a
	// receive can block: the lane's on an empty queue, the dispatcher's on
	// an empty free list.
	queue chan *subBatch
	free  chan *subBatch

	// probe, when set, tracks the lane goroutine's liveness: idle while
	// parked on the queue, beating once per sub-batch.
	probe *resilience.Probe

	frames  atomic.Uint64 // packets judged
	batches atomic.Uint64 // sub-batches judged
	stalls  atomic.Uint64 // times the dispatcher found every buffer in flight
}

// newLane builds a lane judging through bf, or through routed when that is
// set: every sub-batch then carries a slot per packet.
func newLane(bf filtering.BatchFilter, routed routedFilter, batch int) *lane {
	batch = max(batch, minSubBatch)
	l := &lane{
		bf:       bf,
		routed:   routed,
		verdicts: make([]filtering.Verdict, 0, batch),
		queue:    make(chan *subBatch, laneBuffers),
		free:     make(chan *subBatch, laneBuffers),
	}
	for i := 0; i < laneBuffers; i++ {
		sub := &subBatch{pkts: make([]packet.Packet, 0, batch)}
		if routed != nil {
			sub.slots = make([]int32, batch)
		}
		l.free <- sub
	}
	l.pending = <-l.free
	return l
}

func (p *pump) startLanes() {
	p.joined.Add(len(p.lanes))
	for _, l := range p.lanes {
		go p.runLane(l)
	}
}

// stopLanes is the pipeline's drain: hand over what is pending, close
// every queue, and wait until every lane has judged all it was sent.
func (p *pump) stopLanes() {
	for _, l := range p.lanes {
		if len(l.pending.pkts) > 0 {
			l.queue <- l.pending
		}
		close(l.queue)
	}
	p.joined.Wait()
}

// dispatch is the dispatcher's share of one source batch over a sharded
// filter. A panic in it quarantines the source batch as in the worker
// pump; packets of it already appended to a lane's pending sub-batch are
// still judged.
//
//bf:hotpath
func (p *pump) dispatch(frames []capture.Frame, flush bool) {
	defer p.contain(len(frames)) //bf:allow hotpath the panic boundary: a decoder fault must cost one source batch, not the daemon
	read := time.Now()
	// Counted up front so a quarantined batch's frames still show.
	p.stats.frames.Add(uint64(len(frames)))
	var t intake
	var pkt packet.Packet
	for i := range frames {
		if p.decode(&pkt, &frames[i], &t) < 0 {
			continue
		}
		l := p.lanes[p.sharded.LaneOf(pkt.Tuple, pkt.Dir)]
		sub := l.pending
		m := len(sub.pkts)
		if m == 0 {
			sub.opened = read
		}
		sub.pkts = sub.pkts[:m+1]
		sub.pkts[m] = pkt
		if m+1 == cap(sub.pkts) {
			l.send()
		}
	}
	p.stats.addIntake(t)
	if flush {
		for _, l := range p.lanes {
			if len(l.pending.pkts) > 0 {
				l.send()
			}
		}
	}
}

// dispatchFleet is dispatch over a fleet's one lane: with nothing to route
// by, each frame is decoded where the lane will read it, and a packet
// joins the sub-batch (the length moves) only once it is whole — a decoder
// panic leaves no half-written packet to be judged. With several lanes the
// choice would be lanes[slot%len(lanes)] here, after a decode into a local.
//
//bf:hotpath
func (p *pump) dispatchFleet(frames []capture.Frame, flush bool) {
	defer p.contain(len(frames)) //bf:allow hotpath the panic boundary: a decoder fault must cost one source batch, not the daemon
	read := time.Now()
	// Counted up front so a quarantined batch's frames still show.
	p.stats.frames.Add(uint64(len(frames)))
	var t intake
	l := p.lanes[0]
	for i := range frames {
		sub := l.pending
		m := len(sub.pkts)
		slot := p.decode(&sub.pkts[:m+1][m], &frames[i], &t)
		if slot < 0 {
			continue
		}
		if m == 0 {
			sub.opened = read
		}
		sub.slots[m] = slot
		sub.pkts = sub.pkts[:m+1]
		if m+1 == cap(sub.pkts) {
			l.send()
		}
	}
	p.stats.addIntake(t)
	if flush && len(l.pending.pkts) > 0 {
		l.send()
	}
}

// send queues the pending sub-batch for the lane and takes an empty one
// off the free list, waiting for the lane when there is none.
//
//bf:hotpath
func (l *lane) send() {
	l.queue <- l.pending
	select {
	case l.pending = <-l.free:
	default:
		l.stalls.Add(1)
		l.pending = <-l.free
	}
}

// runLane is one lane's goroutine: judge sub-batches until the dispatcher
// closes the queue.
//
//bf:hotpath
func (p *pump) runLane(l *lane) {
	defer p.joined.Done() //bf:allow hotpath once per goroutine: the join stopLanes waits on
	for {
		setIdle(l.probe, true)
		sub, ok := <-l.queue
		setIdle(l.probe, false)
		if !ok {
			return
		}
		p.judge(l, sub)
		beat(l.probe)
	}
}

// judge runs one sub-batch through the lane's filter and accounts it.
//
//bf:hotpath
func (p *pump) judge(l *lane, sub *subBatch) {
	defer p.recycle(l, sub) //bf:allow hotpath the lane's panic boundary, and the buffer must go back to the dispatcher even then
	if l.routed != nil {
		l.verdicts = l.routed.ProcessRoutedInto(sub.pkts, sub.slots[:len(sub.pkts)], l.verdicts)
	} else {
		l.verdicts = l.bf.ProcessBatchInto(sub.pkts, l.verdicts)
	}
	p.stats.addVerdicts(sub.pkts, l.verdicts)
	l.frames.Add(uint64(len(sub.pkts)))
	l.batches.Add(1)
	p.stats.observeBatchLatency(time.Since(sub.opened), len(sub.pkts))
}

// recycle ends judge: a panic quarantines that sub-batch alone — the other
// lanes and the dispatcher never notice — and either way the buffer
// returns to the free list.
func (p *pump) recycle(l *lane, sub *subBatch) {
	if r := recover(); r != nil {
		p.quarantine(len(sub.pkts), r)
	}
	sub.pkts = sub.pkts[:0]
	l.free <- sub
}
