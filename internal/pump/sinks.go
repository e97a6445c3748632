package pump

import (
	"sync"
	"time"

	"bitmapfilter/internal/filtering"
)

// The commit step judges every filter in place. Commits happen in source
// order, under one lock, so the filter sees what one goroutine reading and
// judging in a loop would have fed it: exactly the packets of one source
// batch per call — ProcessHashedInto over the pairs their worker computed
// (and, for a routed filter, the slots it found: the tenant classify found,
// the shard ShardOf named), ProcessBatchInto for a filter that does not offer
// the halves — so verdicts, counters, rotations, APD draws and snapshot bytes
// are the inline loop's. A routed filter, a core.Group, takes its own lock
// inside the call.
//
// A routed filter used to be handed to a goroutine of its own, a lane, to
// keep a fleet's 2 MiB of tenant state on one core; that was measured while
// the lane still regrouped every batch by tenant. With the regroup gone the
// lane was only a hand-off, and judging in place measured, in alternating
// pairs of the benchmark on a 2-core box: scan_flood_2lane 12.40M → 13.35M
// frames/s (10 of 10 pairs, CPU 151.9 → 147.1 ns/frame); tenant_fleet
// 12.84M → 12.28M (5 of 10) and 12.12M → 12.56M (7 of 10), each inside the
// parent's spread, CPU 150.6 → 157.4 and 159.5 → 158.1 ns/frame.

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
//
//bf:hotpath
func (p *Pump) sink(b *batchBuf) {
	p.count(p.judge(b))
	b.free <- b
}

// judge is the filter's back half: the ordered half of Algorithm 2 over
// exactly the packets of one source batch. A panic quarantines the batch —
// its packets counted, never judged — and the sequence moves on; the filter's
// own state is untouched by construction (it mutates per packet, and a
// panicking packet never completed). It reports whether the filter judged the
// batch; after a panic the named result is left false.
//
//bf:hotpath
func (p *Pump) judge(b *batchBuf) (judged bool) {
	defer p.contain(len(b.pkts)) //bf:allow hotpath the panic boundary: a filter fault must cost one source batch, not the daemon
	if b.poisoned {
		return false
	}
	switch {
	case p.hashed != nil:
		p.verdicts = p.hashed.ProcessHashedInto(b.pkts, b.pairs, p.verdicts)
	case p.routed != nil:
		p.verdicts = p.routed.ProcessHashedInto(b.pkts, b.slots[:len(b.pkts)], b.pairs, p.verdicts)
	default:
		p.verdicts = p.bf.ProcessBatchInto(b.pkts, p.verdicts)
	}
	// From the batch's read to its last verdict, the wait for the batches
	// ahead of it inside.
	p.latency.observe(time.Since(b.read), len(b.pkts))
	return true
}

func (p *Pump) contain(packets int) {
	if r := recover(); r != nil {
		p.quarantine(packets, r)
	}
}
