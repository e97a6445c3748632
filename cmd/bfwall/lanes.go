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

// laneBuffers is how many sub-batches of -batch packets a lane owns: one
// filling at the dispatcher, one being judged, the rest queued between
// them to ride out the lanes falling out of step. When all are in flight
// the dispatcher blocks — that is the pipeline's back-pressure. Measured
// on scan_flood_2lane: four is ≈8 % slower (the dispatcher keeps running
// dry), sixteen no faster and half a MiB more resident.
const laneBuffers = 8

// subBatch is one lane's share of one or more source batches.
type subBatch struct {
	pkts []packet.Packet
	// opened is when the source batch that put the first packet in was
	// read: the latency reservoir measures from here to the last verdict,
	// queue wait included.
	opened time.Time
}

type lane struct {
	bf       filtering.BatchFilter
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

func newLane(bf filtering.BatchFilter, batch int) *lane {
	l := &lane{
		bf:       bf,
		verdicts: make([]filtering.Verdict, 0, batch),
		queue:    make(chan *subBatch, laneBuffers),
		free:     make(chan *subBatch, laneBuffers),
	}
	for i := 0; i < laneBuffers; i++ {
		l.free <- &subBatch{pkts: make([]packet.Packet, 0, batch)}
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

// dispatch is the dispatcher's share of one source batch. A panic in it
// quarantines the source batch as in the one-lane pump; packets of it
// already appended to a lane's pending sub-batch are still judged.
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
		if !p.decode(&pkt, &frames[i], &t) {
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
		if l.probe != nil {
			l.probe.SetIdle(true)
		}
		sub, ok := <-l.queue
		if l.probe != nil {
			l.probe.SetIdle(false)
		}
		if !ok {
			return
		}
		p.judge(l, sub)
		if l.probe != nil {
			l.probe.Beat()
		}
	}
}

// judge runs one sub-batch through the lane's shard and accounts it.
//
//bf:hotpath
func (p *pump) judge(l *lane, sub *subBatch) {
	defer p.recycle(l, sub) //bf:allow hotpath the lane's panic boundary, and the buffer must go back to the dispatcher even then
	l.verdicts = l.bf.ProcessBatchInto(sub.pkts, l.verdicts)
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
