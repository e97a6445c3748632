package pump

import (
	"runtime"
	"time"

	"bitmapfilter/internal/capture"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/resilience"
)

// workerBuffers is how many batches a worker owns: one being read or
// decoded, the rest published. With all of them in flight the worker blocks
// on its free list — the pump's back-pressure. A single filter is level from
// three up (scan_flood: two 19.7M frames/s, three, four and eight
// 22.2–22.8M). Eight was sized for the lane a routed filter used to be
// judged on, whose queue ran dry with four (tenant_fleet, W = 1: 16.0–16.4M →
// 9.7–9.8M); whether a fleet judged on the commit step still needs eight is
// unverified, and the constant stays so that the pump's memory does not move.
const workerBuffers = 8

// batchBuf is one batch of packets on its way to a verdict: a source batch
// on its way through a worker to the commit step.
type batchBuf struct {
	free  chan *batchBuf  // where it goes back to: its worker's
	ring  []capture.Frame // bare: a filling source gives the slots buffers
	pkts  []packet.Packet // decoded from ring[:n]
	slots []int32         // per packet, for a routed filter: its tenant's or its shard's slot
	pairs []uint64        // per packet: its key's base pair (h1, h2), for a hashedFilter or a routed filter
	n     int             // frames read
	seq   uint64          // place in source order
	read  time.Time       // when the source returned it
	// poisoned: the decode panicked. The batch is quarantined already and
	// is published, empty, only so the sequence advances.
	poisoned bool
}

type worker struct {
	// free holds the worker's idle buffers, with room for all of them: a
	// send to it never blocks.
	free  chan *batchBuf
	probe *resilience.Probe
}

// work is one worker's loop.
//
//bf:hotpath
func (p *Pump) work(w *worker) {
	for more := true; more; {
		b := p.take(w)
		more = p.read(w, b)
		if b.n == 0 {
			w.free <- b
			continue
		}
		p.decodeBatch(b)
		p.publish(b)
		p.commit(w)
		beat(w.probe)
	}
}

// take returns one of the worker's buffers, waiting for whoever judges when
// all are in flight.
//
//bf:hotpath
func (p *Pump) take(w *worker) *batchBuf {
	select {
	case b := <-w.free:
		return b
	default:
	}
	setIdle(w.probe, true)
	p.bufferWaits.Add(1)
	b := <-w.free
	setIdle(w.probe, false)
	return b
}

// turnYields bounds the yields a worker makes for a turn at the source before
// it sleeps for one (a live source may hold its turn until traffic). Workers
// with a short commit come back in step, and a replay's turn (512 frames at
// ≈16–21 ns: ≈8–11 µs) is shorter than a sleep and its wake-up: scan_flood
// 17.1M → 22.8M frames/s.
const turnYields = 64

// read is the worker's turn at the source: the lock serializes ReadBatch
// and numbers the batches in the order the source delivered them, and the
// time inside ReadBatch is the pump's read term (sourceBusy). It reports
// whether the source may have more.
//
//bf:hotpath
func (p *Pump) read(w *worker, b *batchBuf) (more bool) {
	setIdle(w.probe, true)
	for i := 0; !p.srcMu.TryLock(); i++ {
		if i == turnYields {
			p.srcMu.Lock()
			break
		}
		runtime.Gosched()
	}
	defer p.srcMu.Unlock()
	b.n, b.poisoned = 0, false
	if !p.srcDone {
		setIdle(p.batchProbe, true)
		start := time.Now()
		b.n, p.srcErr = p.src.ReadBatch(b.ring)
		b.read = time.Now()
		p.sourceBusy.Add(int64(b.read.Sub(start)))
		setIdle(p.batchProbe, false)
		b.seq = p.nextSeq
		if b.n > 0 {
			p.nextSeq++
		}
		p.srcDone = p.srcErr != nil
	}
	setIdle(w.probe, false)
	return !p.srcDone
}

// decodeBatch is the front half of a batch, on the worker's own core: what
// the filter will see of it, the slot each packet goes to (for a routed
// filter), and the base pair its bits derive from, hashed with the filter's
// hasher or with that of the packet's tenant or shard.
// Each of its two stages costs one clock read: the decode is timed from the
// batch's read stamp, the hash from the decode's end.
//
//bf:hotpath
func (p *Pump) decodeBatch(b *batchBuf) {
	defer p.containDecode(b) //bf:allow hotpath the panic boundary: a decoder fault must cost one source batch, not the daemon
	// Counted up front so a quarantined batch's frames still show.
	p.frames.Add(uint64(b.n))
	var t intake
	pkts := b.pkts[:0]
	for i := range b.ring[:b.n] {
		m := len(pkts)
		pkts = pkts[:m+1]
		slot := p.decode(&pkts[m], &b.ring[i], &t)
		if slot < 0 {
			pkts = pkts[:m]
			continue
		}
		if b.slots != nil {
			if p.sharded != nil {
				slot = int32(p.sharded.ShardOf(pkts[m].Tuple, pkts[m].Dir))
			}
			b.slots[m] = slot
		}
	}
	b.pkts = pkts
	p.addIntake(t)
	decoded := time.Now()
	p.decodeBusy.Add(int64(decoded.Sub(b.read)))
	switch {
	case p.hashed != nil:
		b.pairs = p.hashed.Hasher().HashBatch(pkts, b.pairs)
	case p.routed != nil:
		b.pairs = p.routed.HashRouted(pkts, b.slots[:len(pkts)], b.pairs)
	default:
		return
	}
	p.hashBusy.Add(int64(time.Since(decoded)))
}

func (p *Pump) containDecode(b *batchBuf) {
	if r := recover(); r != nil {
		b.poisoned, b.pkts, b.pairs = true, b.pkts[:0], b.pairs[:0]
		p.quarantine(b.n, r)
	}
}

// publish puts a decoded batch where the commit step will look for it. At
// most len(slots) batches are between read and commit — each holds a buffer,
// and a buffer is freed only after its slot is cleared — so the slot of
// batch seq is free.
//
//bf:hotpath
func (p *Pump) publish(b *batchBuf) {
	p.slots[b.seq%uint64(len(p.slots))].Store(b)
}

// commit commits what is ready, if nobody else is: while the head of the
// sequence is published and the commit lock is free and not wanted by
// Locked, take it, drain, let go and look again — a batch published while
// this goroutine held the lock found TryLock taken and left. The look at the
// head is unlocked and so a hint, but never a stale "no" for a batch this
// goroutine published itself: no batch is stranded, since a publisher that
// loses the TryLock lost it to a holder that has yet to unlock and look
// again, and one that defers to Locked, to a caller that will look once it
// has the lock and has let it go.
//
//bf:hotpath
func (p *Pump) commit(w *worker) {
	for p.lending.Load() == 0 && p.slots[p.head.Load()%uint64(len(p.slots))].Load() != nil && p.commitMu.TryLock() {
		start := time.Now()
		p.drain(w, 0)
		p.commitBusy.Add(int64(time.Since(start)))
		p.commitMu.Unlock()
	}
}

// drain sinks every consecutive published batch from the head on: the
// first owed of them whatever happens, the rest while nobody waits in
// Locked. The caller holds the commit lock; w is the committing worker, nil
// for Locked's caller.
//
//bf:hotpath
func (p *Pump) drain(w *worker, owed int) {
	for ; owed > 0 || p.lending.Load() == 0; owed-- {
		head := p.head.Load()
		slot := &p.slots[head%uint64(len(p.slots))]
		b := slot.Load()
		if b == nil {
			return
		}
		slot.Store(nil)
		if w == nil || w.free != b.free {
			// Committed by a goroutine that did not decode it: the only time
			// a batch's packets change cores.
			p.foreignCommits.Add(1)
		}
		p.sink(b)
		p.head.Store(head + 1)
		beat(p.batchProbe)
	}
}
