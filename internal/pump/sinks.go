package pump

import (
	"sync"
	"sync/atomic"
	"time"

	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/resilience"
)

// The three sinks of the commit step. Commits happen in source order, under
// one lock, so each sink sees what one goroutine reading and judging in a
// loop would have fed it:
//
// A single filter is judged in place: exactly the packets of one source
// batch per call — ProcessHashedInto over the pairs their worker computed,
// ProcessBatchInto for a filter that does not offer the halves — so verdicts,
// counters, rotations, APD draws and snapshot bytes are the inline loop's.
//
// A sharded filter's packets are appended, in source order, to the pending
// sub-batch of the lane their worker found for them (Sharded.LaneOf): lane i
// is fed exactly the subsequence Sharded.ProcessBatchInto would hand shard
// i. The shards share no state, so every counter, mark, rotation and APD
// draw equals the synchronous form's; only the interleaving between shards
// differs, and nothing observes it. The hand-off copies 40 B per packet.
//
// A fleet's batch is handed to its one lane whole, zero-copy — the batch
// buffer is the sub-batch, the slots classify found and the pairs the worker
// hashed ride in it, and the lane gives the buffer back to its worker. The
// lane sees every packet in source order, cut at the source's batches, and
// judges each in its tenant's filter, in that order (Set.ProcessHashedInto):
// each tenant sees what per-packet Set.Process would have fed it. The fleet
// is not judged in place because its 2 MiB of tenant state would follow
// whichever worker commits (tenant_fleet 17.0–18.4M → 13.5–14.2M frames/s,
// CPU 125 → 140 ns); a lane keeps it on one core.

// laneBuffers is how many sub-batches a shard's lane owns: one filling at
// the commit step, one being judged, the rest queued between them to ride
// out the lanes falling out of step. Measured on scan_flood_2lane: four is
// ≈8 % slower, sixteen no faster and half a MiB more resident.
const laneBuffers = 8

// lane is one goroutine that judges: a shard's, or the fleet's.
type lane struct {
	bf       filtering.BatchFilter // the shard, or the whole fleet
	pending  *batchBuf             // a shard's: filling; the commit step's
	verdicts []filtering.Verdict   // the lane goroutine's

	// queue carries batches to the lane, free carries a shard lane's judged
	// sub-batches back. Each holds every buffer that can be sent on it, so
	// only a receive can block: the lane's on an empty queue, the commit
	// step's on a shard lane's empty free list.
	queue chan *batchBuf
	free  chan *batchBuf
	probe *resilience.Probe
	shown counterCopy

	frames  atomic.Uint64 // packets judged
	batches atomic.Uint64 // sub-batches judged
	stalls  atomic.Uint64 // times the commit step found every sub-batch in flight
	busy    atomic.Int64  // ns spent judging them
}

func newLane(bf filtering.BatchFilter, buffers int) *lane {
	l := &lane{bf: bf, queue: make(chan *batchBuf, buffers), free: make(chan *batchBuf, buffers)}
	l.shown.show(bf.Counters())
	return l
}

// counterCopy is what the monitoring plane sees of a filter: its counters
// as of the last batch, left by whoever judged it. A single filter is not
// goroutine-safe, a fleet's tenants need not be, and a judge can be busy
// without end when the filter is the bottleneck — so a scrape never touches
// the filter or a lock a judge holds: it reads the copy, at most one batch
// old, under a lock nobody holds for longer than the copy takes. The copy is
// also the judge's baseline for its next batch (tallies.count).
type counterCopy struct {
	mu sync.Mutex
	c  filtering.Counters
}

// show makes c the copy and returns the one it replaces.
func (s *counterCopy) show(c filtering.Counters) (was filtering.Counters) {
	s.mu.Lock()
	was, s.c = s.c, c
	s.mu.Unlock()
	return was
}

func (s *counterCopy) addTo(total *filtering.Counters) {
	s.mu.Lock()
	total.OutPackets += s.c.OutPackets
	total.InPackets += s.c.InPackets
	total.InPassed += s.c.InPassed
	total.InDropped += s.c.InDropped
	s.mu.Unlock()
}

// sink is what committing one batch means; the caller holds the commit lock.
// The buffer goes back to its worker here unless a lane takes it over.
//
//bf:hotpath
func (p *Pump) sink(b *batchBuf) {
	switch {
	case p.sharded != nil:
		p.scatter(b)
	case p.fleet == nil:
		judged := p.judge(b)
		p.count(&p.shown, p.bf.Counters(), judged)
	case len(b.pkts) > 0:
		// The lane's queue holds every buffer: this never blocks, and the
		// back-pressure stays the worker's own empty free list.
		p.lanes[0].queue <- b
		return
	}
	b.free <- b
}

// judge is the single filter's back half: the ordered half of Algorithm 2
// over exactly the packets of one source batch. A panic quarantines the batch
// — its frames counted, never judged — and the sequence moves on; the
// filter's own state is untouched by construction (it mutates per packet, and
// a panicking packet never completed). It reports whether the filter judged
// the batch; after a panic the named result is left false.
//
//bf:hotpath
func (p *Pump) judge(b *batchBuf) (judged bool) {
	defer p.contain(b.n) //bf:allow hotpath the panic boundary: a filter fault must cost one source batch, not the daemon
	if b.poisoned {
		return false
	}
	if p.hashed != nil {
		p.verdicts = p.hashed.ProcessHashedInto(b.pkts, b.pairs, p.verdicts)
	} else {
		p.verdicts = p.bf.ProcessBatchInto(b.pkts, p.verdicts)
	}
	// From the batch's read to its last verdict, the wait for the batches
	// ahead of it inside.
	p.latency.observe(time.Since(b.read), b.n)
	return true
}

func (p *Pump) contain(frames int) {
	if r := recover(); r != nil {
		p.quarantine(frames, r)
	}
}

// scatter is the sharded filter's commit: each packet joins its lane's
// pending sub-batch, and a full one is sent. A short batch means the source
// ran dry: flush, so no packet waits in a half-full sub-batch for traffic
// that may not come.
//
//bf:hotpath
func (p *Pump) scatter(b *batchBuf) {
	for i := range b.pkts {
		l := p.lanes[b.slots[i]]
		sub := l.pending
		m := len(sub.pkts)
		if m == 0 {
			sub.read = b.read
		}
		sub.pkts = sub.pkts[:m+1]
		sub.pkts[m] = b.pkts[i]
		if m+1 == cap(sub.pkts) {
			l.send()
		}
	}
	if b.n < len(b.ring) {
		for _, l := range p.lanes {
			if len(l.pending.pkts) > 0 {
				l.send()
			}
		}
	}
}

// send queues the pending sub-batch for the lane and takes an empty one off
// the free list, waiting for the lane when there is none — under the commit
// lock, which is the sharded pipeline's back-pressure: the workers behind
// fill their buffers and park. The lane needs no lock to make room.
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

// runLane is one lane's goroutine: judge until Run closes the queue.
//
//bf:hotpath
func (p *Pump) runLane(l *lane) {
	for {
		setIdle(l.probe, true)
		b, ok := <-l.queue
		setIdle(l.probe, false)
		if !ok {
			return
		}
		p.judgeLane(l, b)
		beat(l.probe)
	}
}

// judgeLane runs one batch through the lane's filter and accounts it.
//
//bf:hotpath
func (p *Pump) judgeLane(l *lane, b *batchBuf) {
	defer p.recycle(l, b) //bf:allow hotpath the lane's panic boundary, and the buffer must go back to its free list even then
	start := time.Now()
	if p.fleet != nil {
		l.verdicts = p.fleet.ProcessHashedInto(b.pkts, b.slots[:len(b.pkts)], b.pairs, l.verdicts)
	} else {
		l.verdicts = l.bf.ProcessBatchInto(b.pkts, l.verdicts)
	}
	l.frames.Add(uint64(len(b.pkts)))
	l.batches.Add(1)
	// From the read that put the first packet in to the last verdict, queue
	// wait included.
	now := time.Now()
	l.busy.Add(int64(now.Sub(start)))
	p.latency.observe(now.Sub(b.read), len(b.pkts))
}

// recycle ends judgeLane: a panic quarantines that batch alone — the other
// lanes and the workers never notice — and either way the counters are
// shown and the buffer returns to its free list.
func (p *Pump) recycle(l *lane, b *batchBuf) {
	r := recover()
	if r != nil {
		p.quarantine(len(b.pkts), r)
	}
	p.count(&l.shown, l.bf.Counters(), r == nil)
	b.pkts = b.pkts[:0]
	b.free <- b
}
