package pump

import (
	"sync"
	"sync/atomic"
	"time"

	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/resilience"
)

// The two sinks of the commit step. Commits happen in source order, under
// one lock, so each sink sees what one goroutine reading and judging in a
// loop would have fed it:
//
// A single filter is judged in place: exactly the packets of one source
// batch per call — ProcessHashedInto over the pairs their worker computed,
// ProcessBatchInto for a filter that does not offer the halves — so verdicts,
// counters, rotations, APD draws and snapshot bytes are the inline loop's.
//
// A routed filter's batch — a tenant fleet's, a sharded filter's — is handed
// to its one lane whole, zero-copy: the batch buffer carries the slots the
// worker found (the tenant classify found, the shard ShardOf named) and the
// pairs it hashed, and the lane gives the buffer back to its worker. The
// lane sees every packet in source order, cut at the source's batches, and
// judges each in its tenant's or shard's filter, in that order
// (ProcessHashedInto): each sees what per-packet Process would have fed it.
// A fleet is not judged in place because its 2 MiB of tenant state would
// follow whichever worker commits (tenant_fleet 17.0–18.4M → 13.5–14.2M
// frames/s, CPU 125 → 140 ns); a lane keeps it on one core.

// lane is the one goroutine that judges a routed filter.
type lane struct {
	verdicts []filtering.Verdict // the lane goroutine's
	// queue carries batches to the lane. It holds every buffer there is, so
	// a send never blocks: the back-pressure is the workers' own free lists.
	queue chan *batchBuf
	probe *resilience.Probe

	frames  atomic.Uint64 // packets judged
	batches atomic.Uint64 // batches judged
	busy    atomic.Int64  // ns spent judging them
}

// counterCopy is what Snapshot sees of a filter: its counters as of the
// last batch, left by whoever judged it. A judge can be busy without end
// when the filter is the bottleneck — so Snapshot never touches the filter
// or the commit lock a judge holds: it reads the copy, at most one batch
// old, under a lock nobody holds for longer than the copy takes. (What the
// control plane reads of the filter itself, it reads through Locked, and
// waits for the judge.) The copy is also the judge's baseline for its next
// batch (Pump.count).
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

func (s *counterCopy) get() filtering.Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c
}

// sink is what committing one batch means; the caller holds the commit lock.
// The buffer goes back to its worker here unless the lane takes it over.
//
//bf:hotpath
func (p *Pump) sink(b *batchBuf) {
	switch {
	case p.lane == nil:
		p.count(p.judge(b))
	case len(b.pkts) > 0:
		p.lane.queue <- b
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

// runLane is the lane's goroutine: judge until Run closes the queue.
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

// judgeLane runs one batch through the routed filter and accounts it.
//
//bf:hotpath
func (p *Pump) judgeLane(l *lane, b *batchBuf) {
	defer p.recycle(b) //bf:allow hotpath the lane's panic boundary, and the buffer must go back to its worker even then
	start := time.Now()
	l.verdicts = p.routed.ProcessHashedInto(b.pkts, b.slots[:len(b.pkts)], b.pairs, l.verdicts)
	l.frames.Add(uint64(len(b.pkts)))
	l.batches.Add(1)
	// From the batch's read to its last verdict, queue wait included.
	now := time.Now()
	l.busy.Add(int64(now.Sub(start)))
	p.latency.observe(now.Sub(b.read), len(b.pkts))
}

// recycle ends judgeLane: a panic quarantines that batch — the workers never
// notice — and either way the counters are shown and the buffer returns to
// its worker.
func (p *Pump) recycle(b *batchBuf) {
	r := recover()
	if r != nil {
		p.quarantine(len(b.pkts), r)
	}
	p.count(r == nil)
	b.free <- b
}
