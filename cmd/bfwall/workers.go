package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bitmapfilter/internal/capture"
	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/resilience"
)

// The worker pump: what a single filter runs behind. Read, decode and
// classify are two thirds of a frame's life and a pure function of its
// bytes; only Algorithm 2 is stateful. So W symmetric workers each take a
// turn at the source (the source lock numbers the batch), decode what they
// read on their own core, publish it in a reorder ring and TryLock the
// judge. Whoever gets it judges every consecutive published batch from the
// head of the sequence on, its own or another worker's; whoever does not
// goes straight back to the source. Nobody waits for a turn, and the filter
// sees exactly the packets, cut at exactly the batch boundaries, one
// goroutine reading and judging in a loop would feed it — verdicts,
// counters, rotations, APD draws and snapshot bytes are that loop's, and
// with W = 1 it is that loop.
//
// No batch is stranded: a publisher that loses the TryLock lost it to a
// holder that has yet to unlock, and every holder looks at the head again
// after unlocking (commit). A packet changes cores only when its worker was
// overtaken — the hand-off that was the whole cost of giving a single
// filter a lane (DESIGN.md §11) is the exception here, not the path.

// maxWorkers caps W = min(GOMAXPROCS, maxWorkers). Read and judge are
// serial, so wall/frame ≈ max(read, judge, (read+decode+judge)/W): on
// scan_flood (21 %, 39 %, 34 % of ≈73 ns) the last term stops mattering
// past W = 3. The reference box has 2 cores and so only ever runs W = 2
// (22.0M frames/s against W = 1 12.3M, parent 12.5M); forced W = 3 and 4
// there measured 23.7M and 25.1M with the cores oversubscribed. W > 2 on
// cores of its own is unverified: the cap is the model's, plus one.
const maxWorkers = 4

// workerBuffers is how many batches a worker owns: one being read or
// decoded, the rest published and waiting for the judge. With all of them
// in flight the worker blocks on its free list — the pump's back-pressure.
// On scan_flood two measured 19.7M frames/s, three, four and eight
// 22.2–22.8M; four rides out being overtaken twice.
const workerBuffers = 4

// batchBuf is one source batch on its way through a worker.
type batchBuf struct {
	owner *worker
	ring  []capture.Frame // bare: a filling source gives the slots buffers
	pkts  []packet.Packet // decoded from ring[:n]
	n     int             // frames read
	seq   uint64          // place in source order
	read  time.Time       // when the source returned it
	// poisoned: the decode panicked. The batch is quarantined already and
	// is published only so the sequence advances.
	poisoned bool
}

type worker struct {
	// free holds the worker's idle buffers, with room for all of them: the
	// judge's send never blocks.
	free chan *batchBuf
	// probe, when set, tracks the worker's liveness: idle while parked on
	// the source or on its free list, beating once per batch it publishes.
	probe *resilience.Probe
}

func defaultWorkers() int { return min(runtime.GOMAXPROCS(0), maxWorkers) }

// newWorkers gives the pump n workers. With more than one a worker reads
// at least minSubBatch frames whatever -batch says — the lanes' constant
// and the lanes' argument: below it the publish and the judge lock cost
// more than the second core gives back, and a source that has run dry
// returns short, so the floor costs no latency.
func (p *pump) newWorkers(n, batch int) {
	if n > 1 {
		batch = max(batch, minSubBatch)
	}
	p.slots = make([]atomic.Pointer[batchBuf], n*workerBuffers)
	p.shown = filterSnapshot{Name: p.bf.Name(), MemoryBytes: p.bf.MemoryBytes(), Counters: p.bf.Counters()}
	for i := 0; i < n; i++ {
		w := &worker{free: make(chan *batchBuf, workerBuffers)}
		for j := 0; j < workerBuffers; j++ {
			w.free <- &batchBuf{owner: w, ring: make([]capture.Frame, batch), pkts: make([]packet.Packet, 0, batch)}
		}
		p.workers = append(p.workers, w)
	}
}

// runWorkers runs the workers until the source ends and returns once every
// batch read has been judged.
func (p *pump) runWorkers() error {
	var wg sync.WaitGroup
	wg.Add(len(p.workers) - 1)
	for _, w := range p.workers[1:] {
		go func() {
			defer wg.Done()
			p.work(w)
		}()
	}
	p.work(p.workers[0])
	wg.Wait()
	// Every worker committed what it published or lost the judge to a worker
	// that did (commit): with all of them back, nothing is left unjudged.
	return p.endOfSource(p.srcErr)
}

// work is one worker's loop.
//
//bf:hotpath
func (p *pump) work(w *worker) {
	for more := true; more; {
		b := p.take(w)
		more = p.read(w, b)
		if b.n == 0 {
			w.free <- b
			continue
		}
		b.read = time.Now()
		p.decodeBatch(b)
		p.publish(b)
		p.commit(w)
		beat(w.probe)
	}
}

// take returns one of the worker's buffers, waiting for the judge when all
// are in flight.
//
//bf:hotpath
func (p *pump) take(w *worker) *batchBuf {
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

// read is the worker's turn at the source: the lock serializes ReadBatch
// and numbers the batches in the order the source delivered them. It
// reports whether the source may have more.
//
//bf:hotpath
func (p *pump) read(w *worker, b *batchBuf) (more bool) {
	setIdle(w.probe, true)
	p.srcMu.Lock()
	defer p.srcMu.Unlock()
	b.n = 0
	if !p.srcDone {
		setIdle(p.batchProbe, true)
		b.n, p.srcErr = p.src.ReadBatch(b.ring)
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

// decodeBatch is the front half of a batch, on the worker's own core.
//
//bf:hotpath
func (p *pump) decodeBatch(b *batchBuf) {
	defer p.containDecode(b) //bf:allow hotpath the panic boundary: a decoder fault must cost one source batch, not the daemon
	// Counted up front so a quarantined batch's frames still show.
	p.stats.frames.Add(uint64(b.n))
	var t intake
	pkts := b.pkts[:0]
	for i := range b.ring[:b.n] {
		m := len(pkts)
		pkts = pkts[:m+1]
		if p.decode(&pkts[m], &b.ring[i], &t) < 0 {
			pkts = pkts[:m]
		}
	}
	b.pkts = pkts
	p.stats.addIntake(t)
}

func (p *pump) containDecode(b *batchBuf) {
	if r := recover(); r != nil {
		b.poisoned = true
		p.quarantine(b.n, r)
	}
}

// publish puts a decoded batch where the judge will look for it. At most
// len(slots) batches are in flight — each holds a buffer — so the slot of
// batch seq is free.
//
//bf:hotpath
func (p *pump) publish(b *batchBuf) {
	p.slots[b.seq%uint64(len(p.slots))].Store(b)
}

// commit judges what is ready, if nobody else is: while the head of the
// sequence is published and the judge lock is free, take it, drain, let go
// and look again — a batch published while this goroutine held the lock
// found TryLock taken and left. The look at the head is unlocked and so a
// hint, but never a stale "no" for a batch this goroutine published itself.
//
//bf:hotpath
func (p *pump) commit(w *worker) {
	for p.slots[p.head.Load()%uint64(len(p.slots))].Load() != nil && p.judgeMu.TryLock() {
		p.drain(w)
		p.judgeMu.Unlock()
	}
}

// drain judges every consecutive published batch from the head on and
// hands each buffer back to its owner; the caller holds the judge lock. A
// slot is cleared before its buffer is freed: batch seq+len(slots) cannot
// be read until then.
//
//bf:hotpath
func (p *pump) drain(w *worker) {
	for {
		head := p.head.Load()
		slot := &p.slots[head%uint64(len(p.slots))]
		b := slot.Load()
		if b == nil {
			return
		}
		slot.Store(nil)
		p.judgeBatch(b)
		p.showCounters()
		if w != b.owner {
			p.foreignCommits.Add(1)
		}
		p.head.Store(head + 1)
		b.owner.free <- b
		beat(p.batchProbe)
	}
}

// judgeBatch is the back half of a batch: one ProcessBatchInto over exactly
// the packets of one source batch, and the tallies. A panic quarantines
// the batch — its frames counted, never judged — and the sequence moves on;
// the filter's own state is untouched by construction (ProcessBatchInto
// mutates per packet, and a panicking packet never completed).
//
//bf:hotpath
func (p *pump) judgeBatch(b *batchBuf) {
	defer p.contain(b.n) //bf:allow hotpath the panic boundary: a filter fault must cost one source batch, not the daemon
	if b.poisoned {
		b.poisoned = false
		return
	}
	p.verdicts = p.bf.ProcessBatchInto(b.pkts, p.verdicts)
	p.stats.addVerdicts(b.pkts, p.verdicts)
	// From the batch's read to its last verdict, the wait for the batches
	// ahead of it inside.
	p.stats.observeBatchLatency(time.Since(b.read), b.n)
}

// showCounters copies the filter's counters to where the monitoring plane
// reads them; the caller holds the judge lock. A single filter is not
// goroutine-safe and the judge lock is held for as long as the judge has
// work — without end when the filter is the bottleneck — so a scrape never
// touches either: it reads the copy, at most one batch old, under a lock
// nobody holds for longer than the copy takes.
//
//bf:hotpath
func (p *pump) showCounters() {
	c := p.bf.Counters()
	p.shownMu.Lock()
	p.shown.Counters = c
	p.shownMu.Unlock()
}

// filterView is the filter as /stats and /metrics show it: a single
// filter's name and size as newWorkers found them — neither changes — and
// its counters as of the last judged batch. Sharded filters and fleets lock
// for themselves, and a mux over bare stats (p nil) has no pump judging
// through bf: those are read directly.
func (p *pump) filterView(bf filtering.BatchFilter) filterSnapshot {
	if p == nil || p.lanes != nil {
		return filterSnapshot{Name: bf.Name(), MemoryBytes: bf.MemoryBytes(), Counters: bf.Counters()}
	}
	p.shownMu.Lock()
	defer p.shownMu.Unlock()
	return p.shown
}

func setIdle(probe *resilience.Probe, idle bool) {
	if probe != nil {
		probe.SetIdle(idle)
	}
}

func beat(probe *resilience.Probe) {
	if probe != nil {
		probe.Beat()
	}
}
