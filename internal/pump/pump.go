// Package pump is the wire-to-verdict data plane bfwall runs: frames from a
// capture source, zero-copy decode, direction classify, the filter's batch
// data plane, and the tallies a monitoring plane reads — zero allocations
// per frame in steady state.
//
// There is one front half, whatever the filter. Read, decode, classify and
// hash are most of a frame's life and a pure function of its bytes; only the
// bit touches of Algorithm 2 are stateful. So W symmetric workers each take a
// turn at the source (the source lock numbers the batch), decode what they read
// on their own core, publish it in a reorder ring and TryLock the commit step.
// Whoever gets it commits every consecutive published batch from the head
// of the sequence on, its own or another worker's; whoever does not goes
// straight back to the source. Nobody waits for a turn, and commits happen
// in exactly the order one goroutine reading in a loop would make them.
//
// Every filter is judged right there, on the commit step (sinks.go). The
// filter's type chooses only what else that takes: a single filter's lock is
// the commit lock, which Locked lends to whoever else must reach the filter;
// a routed filter — a core.Group: a tenant fleet or a sharded filter — takes
// its own lock inside the call. The workers also hash each packet's key to
// its base pair (a routed filter's with the hasher of the packet's tenant or
// shard), so what is left to the serial stage is the bit touches.
package pump

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"bitmapfilter/internal/capture"
	"bitmapfilter/internal/core"
	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/resilience"
)

// maxWorkers caps the default W = min(GOMAXPROCS, maxWorkers). Read and
// commit are serial, so wall/frame ≈ max(read, commit, (read+decode+hash+
// commit)/W): on scan_flood (≈18 and ≈16 ns — sourceBusy and commitBusy over
// frames — and ≈90 ns of CPU a frame: 20 %, 18 % and 100 %, the workers
// hashing) the last term stops mattering past W = 4. The reference box has
// 2 cores and so only ever runs W = 2; forced W = 3 and 4 there measured
// 23.7M and 25.1M frames/s against 22.0M with the cores oversubscribed (PR
// 21). W > 2 on cores of its own is unverified: the cap is the model's.
const maxWorkers = 4

// minBatch is the smallest batch read with more than one worker, however
// small Config.Batch (the source read) is: every batch costs a turn at the
// source lock and a TryLock of the commit lock, and one a worker does not
// commit itself changes cores; below a few hundred packets that costs more
// than the second core gives back (a single filter's workers claiming
// 32-frame batches lost: 9.3–12.8M frames/s against 11.5–11.7M). It costs
// no latency: a source that has run dry returns short, and a short batch is
// committed as it is.
const minBatch = 512

// Config is what New builds a pump from.
type Config struct {
	Source capture.Source
	// Filter judges; the pump's direction and verdict tallies are the
	// per-batch differences of its cumulative Counters, so only the pump may
	// feed it packets while Run runs. A single filter is not goroutine-safe:
	// anything else that touches it while Run runs goes through Locked.
	Filter filtering.BatchFilter
	// Subnets are the client prefixes direction is classified against; with
	// none the decoder's MAC-derived direction stands. A fleet brings its own.
	Subnets []packet.Prefix
	// Batch is the frames asked of the source per read (at least 1).
	Batch int
	// Workers is W; zero or less means min(GOMAXPROCS, 4).
	Workers int
	// Logf, when set, receives terminal source errors and quarantine events;
	// the workers call it, so it must tolerate concurrent calls.
	Logf func(format string, args ...any)
}

// routed is a filter whose batches carry a slot per packet, the member of
// its core.Group that judges the packet: a tenant fleet's tenant
// (*tenant.Set), a sharded filter's shard (*core.Sharded); the two differ
// only in what the slot is. Like a hashedFilter it comes in two halves,
// both the group's: the workers hash each packet with its slot's hasher,
// the commit step judges the batch in source order, under the group's lock.
type routed interface {
	HashRouted(pkts []packet.Packet, slots []int32, dst []uint64) []uint64
	ProcessHashedInto(pkts []packet.Packet, slots []int32, pairs []uint64, out []filtering.Verdict) []filtering.Verdict
}

// fleet is the routed filter whose slots index a prefix table: the slot
// classify finds is the slot the fleet hashes and judges by.
type fleet interface {
	routed
	Routes() *packet.PrefixTable
}

// sharded is the routed filter whose slot is a shard, named by the packet's
// key (*core.Sharded): the workers ask ShardOf once classify has set the
// direction.
type sharded interface {
	routed
	ShardOf(tup packet.Tuple, dir packet.Direction) int
}

// hashedFilter is a single filter that offers Algorithm 2 in its two halves
// (*core.Filter): the workers run the pure one, each over its own batch, and
// the commit step only the one that needs packet order.
type hashedFilter interface {
	Hasher() *core.Hasher
	ProcessHashedInto(pkts []packet.Packet, pairs []uint64, out []filtering.Verdict) []filtering.Verdict
}

// Pump is one data plane over one source and one filter.
type Pump struct {
	src     capture.Source
	bf      filtering.BatchFilter
	clients *packet.PrefixTable // nil: keep the decoder's direction
	logf    func(format string, args ...any)
	tallies

	// srcMu is a worker's turn at the source and guards the three fields
	// under it; slots is the reorder ring, batch seq at seq % len, as many
	// slots as the workers own buffers; commitMu guards the sink's state
	// (verdicts, and a single filter itself) and every write of head, the
	// next batch to commit.
	workers  []*worker
	srcMu    sync.Mutex
	nextSeq  uint64
	srcDone  bool
	srcErr   error
	slots    []atomic.Pointer[batchBuf]
	commitMu sync.Mutex
	head     atomic.Uint64
	// lending counts the callers waiting in Locked: while it is not 0 a
	// drain stops at the next batch and no worker takes the commit lock.
	lending atomic.Int32

	// What the commit step judges through: routed, or hashed, or neither (the
	// filter's ProcessBatchInto). sharded is routed, when its slots are shards.
	routed   routed
	sharded  sharded
	hashed   hashedFilter // the single filter, if the workers hash for it
	verdicts []filtering.Verdict
	shown    counterCopy
	name     string // the filter's, as New found them: neither changes
	memory   uint64

	// batchProbe tracks the pump's liveness as a whole: idle while a worker
	// is parked on the source, beating once per committed batch.
	batchProbe *resilience.Probe
}

// New picks the pump's sink from the filter it is given and builds its
// workers. Rings start empty: an aliasing source never needs a slot's buffer
// and a filling one allocates it on first use.
func New(cfg Config) *Pump {
	p := &Pump{src: cfg.Source, bf: cfg.Filter, logf: cfg.Logf, name: cfg.Filter.Name(), memory: cfg.Filter.MemoryBytes()}
	n := cfg.Workers
	if n <= 0 {
		n = min(runtime.GOMAXPROCS(0), maxWorkers)
	}
	buffers := n * workerBuffers
	switch f := cfg.Filter.(type) {
	case fleet:
		// One table, one slot numbering: whatever built the fleet (the
		// config, a snapshot) also decided what its slots mean.
		p.routed, p.clients = f, f.Routes()
	case sharded:
		p.routed, p.sharded = f, f
	case hashedFilter:
		p.hashed = f
	}
	if p.clients == nil && len(cfg.Subnets) > 0 {
		p.clients = packet.NewPrefixTable(cfg.Subnets)
	}
	batch := max(cfg.Batch, 1)
	if n > 1 {
		batch = max(batch, minBatch)
	}
	p.shown.show(p.bf.Counters())
	p.slots = make([]atomic.Pointer[batchBuf], buffers)
	for i := 0; i < n; i++ {
		w := &worker{free: make(chan *batchBuf, workerBuffers)}
		for j := 0; j < workerBuffers; j++ {
			b := &batchBuf{free: w.free, ring: make([]capture.Frame, batch), pkts: make([]packet.Packet, 0, batch)}
			if p.routed != nil {
				b.slots = make([]int32, batch)
			}
			if p.hashed != nil || p.routed != nil {
				b.pairs = make([]uint64, 0, 2*batch) // once, here: 2·batch words, a base pair per packet
			}
			w.free <- b
		}
		p.workers = append(p.workers, w)
	}
	return p
}

// Locked runs fn with the filter to itself. A single filter is judged under
// the commit lock, so fn runs under it, between two batches; a routed filter
// locks itself, and fn just runs. The control plane reads, punches and
// snapshots the filter through here while the pump runs.
//
// A drain would hold the commit lock for as long as batches keep being
// published — for ever when the filter is the long stage — so while a caller
// waits here, a drain stops at its next batch and no worker takes the lock.
// The workers leave their batches published meanwhile, and once every
// buffer is, none is left to commit them. So the caller commits them before
// it lets go, at most one batch per buffer whoever else waits, so that
// callers in a row cannot starve the pump; and, like commit, it looks again
// after.
func (p *Pump) Locked(fn func()) {
	if p.routed != nil {
		fn()
		return
	}
	defer p.commit(nil)
	p.lending.Add(1)
	p.commitMu.Lock()
	p.lending.Add(-1)
	defer p.commitMu.Unlock()
	start := time.Now()
	fn()
	p.drain(nil, len(p.slots))
	p.commitBusy.Add(int64(time.Since(start)))
}

// Watch registers the pump's probes with wd, one per worker — worker<i>,
// idle on the source (source lock included) and on its free list, beating
// per published batch — and batch for the pump as a whole, so that a worker
// stuck in its filter or in a decode flips /healthz by name.
func (p *Pump) Watch(wd *resilience.Watchdog, stallAfter time.Duration) {
	p.batchProbe = wd.Heartbeat("batch", stallAfter)
	for i, w := range p.workers {
		w.probe = wd.Heartbeat(fmt.Sprintf("worker%d", i), stallAfter)
	}
}

// Run drains the source through the filter until it ends, and returns only
// once every frame read has its verdict: the workers joined and every batch
// read committed, which is what makes a snapshot taken afterwards whole.
//
// The workers run with debug.SetPanicOnFault: a frame's bytes may be a
// mapped trace (capture.OpenTrace) that a truncation takes away under the
// decode, and the fault is then a panic containDecode quarantines, not the
// end of the process. The goroutine that calls Run gets its own setting
// back.
func (p *Pump) Run() error {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	var workers sync.WaitGroup
	workers.Add(len(p.workers) - 1)
	for _, w := range p.workers[1:] {
		go func() {
			defer workers.Done()
			debug.SetPanicOnFault(true)
			p.work(w)
		}()
	}
	p.work(p.workers[0])
	// Every worker committed what it published or lost the commit lock to a
	// goroutine that does (commit) — a worker, or a caller in Locked, whose
	// look may still be to come: once it has been, nothing is uncommitted.
	workers.Wait()
	if p.head.Load() != p.nextSeq {
		p.Locked(func() {})
	}
	// A clean close is silent; anything else is genuinely terminal — the
	// supervisor has already retried everything survivable — and is logged
	// with its error class before it surfaces.
	err := p.srcErr
	if errors.Is(err, io.EOF) {
		return nil
	}
	if p.logf != nil {
		p.logf("source failed (class=%s): %v", resilience.Classify(err), err)
	}
	return err
}

// decode is the per-frame front half: zero-copy decode into dst, stamp it
// from the frame, classify its direction against the client subnets. It
// returns the index of the client prefix that decided the direction (0
// with no subnets configured), or -1 for a frame the filter never sees:
// undecodable, counted by class here, or unrouted.
//
//bf:hotpath
func (p *Pump) decode(dst *packet.Packet, f *capture.Frame, t *intake) (slot int32) {
	t.bytes += uint64(f.OrigLen)
	if f.Truncated() {
		t.truncated++
	}
	if err := packet.DecodeInto(dst, f.Data); err != nil {
		p.decodeErr[decodeClass(err)].Add(1)
		return -1
	}
	dst.Time = f.Time
	if f.Truncated() {
		// The decoder judged the captured prefix; account the frame
		// at its wire length (APD bandwidth policies care).
		dst.Length = f.OrigLen
	}
	// Subnet classification overrides the synthetic-MAC direction:
	// real captures do not carry our MACs. Frames touching no client
	// subnet are transit the edge would never forward to us.
	if p.clients != nil {
		var dir packet.Direction
		if dir, slot = p.clients.ClassifySlot(dst.Tuple); slot < 0 {
			t.unrouted++
			return slot
		}
		dst.Dir = dir
	}
	return slot
}

// quarantine is what both panic boundaries end in: the offending batch's
// frames (the decode's) or packets (the judge's) are counted under the
// overload policy, never judged, and the pump carries on.
func (p *Pump) quarantine(frames int, cause any) {
	p.quarantinedBatches.Add(1)
	p.quarantinedFrames.Add(uint64(frames))
	if p.logf != nil {
		p.logf("panic in batch path quarantined %d frames: %v", frames, cause)
	}
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
