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
// The filter's type chooses only what a commit does (sinks.go): a single
// filter is judged right there, under the commit lock; a sharded filter's
// packets are scattered, in source order, into one lane per shard; a tenant
// fleet's whole batch is handed, as it is, to the fleet's one lane.
package pump

import (
	"errors"
	"fmt"
	"io"
	"runtime"
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

// minBatch is the smallest batch that changes goroutine, however small
// Config.Batch (the source read) is: a hand-off is a channel send or a lock
// and, when the other side has caught up, a goroutine wake-up, and below a
// few hundred packets that costs more than the second core gives back (a
// fleet's lane handed 32-packet batches read 6.22M → 5.16M frames/s against
// no lane at all, and 6.22M → 12.89M with this floor). It applies with more
// than one worker or any lane, and costs no latency: a source that has run
// dry returns short, and a short batch is committed — and flushed — as it is.
const minBatch = 512

// Config is what New builds a pump from.
type Config struct {
	Source capture.Source
	// Filter judges; the pump's direction and verdict tallies are the
	// per-batch differences of its cumulative Counters, so only the pump may
	// feed it packets while Run runs.
	Filter filtering.BatchFilter
	// Subnets are the client prefixes direction is classified against; with
	// none the decoder's MAC-derived direction stands. A fleet brings its own.
	Subnets []packet.Prefix
	// Batch is the frames asked of the source per read (at least 1).
	Batch int
	// Workers is W; zero or less means min(GOMAXPROCS, 4).
	Workers int
	// Logf, when set, receives terminal source errors and quarantine events;
	// workers and lanes call it, so it must tolerate concurrent calls.
	Logf func(format string, args ...any)
}

// fleet is the filter whose batches carry a slot per packet (*tenant.Set):
// Routes is the table the slots index, so the slot classify finds is the
// slot the fleet judges by.
type fleet interface {
	Routes() *packet.PrefixTable
	ProcessRoutedInto(pkts []packet.Packet, slots []int32, out []filtering.Verdict) []filtering.Verdict
}

// hashedFilter is a single filter that offers Algorithm 2 in its two halves
// (*core.Filter, *core.Safe): the workers run the pure one, each over its own
// batch, and the commit step only the one that needs packet order.
type hashedFilter interface {
	Hasher() *core.Hasher
	ProcessHashedInto(pkts []packet.Packet, idxs []uint64, out []filtering.Verdict) []filtering.Verdict
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
	// (verdicts, the lanes' pending sub-batches) and every write of head,
	// the next batch to commit.
	workers  []*worker
	srcMu    sync.Mutex
	nextSeq  uint64
	srcDone  bool
	srcErr   error
	slots    []atomic.Pointer[batchBuf]
	commitMu sync.Mutex
	head     atomic.Uint64

	// The sink: sharded and one lane per shard, or fleet and its one lane,
	// or neither — verdicts and shown are then the commit step's own.
	sharded  *core.Sharded
	fleet    fleet
	lanes    []*lane
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
	p.latency.init()
	n := cfg.Workers
	if n <= 0 {
		n = min(runtime.GOMAXPROCS(0), maxWorkers)
	}
	buffers := n * workerBuffers
	switch f := cfg.Filter.(type) {
	case fleet:
		// One table, one slot numbering: whatever built the fleet (the
		// config, a snapshot) also decided what its slots mean.
		p.fleet, p.clients = f, f.Routes()
		p.lanes = []*lane{newLane(cfg.Filter, buffers)} // its queue holds every buffer there is
	case *core.Sharded:
		if f.Shards() > 1 {
			p.sharded = f
			for i := 0; i < f.Shards(); i++ {
				p.lanes = append(p.lanes, newLane(f.Lane(i), laneBuffers))
			}
		}
	case hashedFilter:
		p.hashed = f
	}
	if p.clients == nil && len(cfg.Subnets) > 0 {
		p.clients = packet.NewPrefixTable(cfg.Subnets)
	}
	batch, laned := max(cfg.Batch, 1), p.lanes != nil
	if n > 1 || laned {
		batch = max(batch, minBatch)
	}
	if !laned {
		p.shown.show(p.bf.Counters())
	}
	p.slots = make([]atomic.Pointer[batchBuf], buffers)
	for i := 0; i < n; i++ {
		w := &worker{free: make(chan *batchBuf, workerBuffers)}
		for j := 0; j < workerBuffers; j++ {
			b := &batchBuf{free: w.free, ring: make([]capture.Frame, batch), pkts: make([]packet.Packet, 0, batch)}
			if laned {
				b.slots = make([]int32, batch)
			}
			if p.hashed != nil {
				b.idxs = make([]uint64, 0, batch*p.hashed.Hasher().Hashes()) // once, here: batch·m words, m ≤ hashfam.MaxFunctions
			}
			w.free <- b
		}
		p.workers = append(p.workers, w)
	}
	if p.sharded != nil {
		for _, l := range p.lanes {
			for i := 0; i < laneBuffers; i++ {
				l.free <- &batchBuf{free: l.free, pkts: make([]packet.Packet, 0, batch)}
			}
			l.pending = <-l.free
		}
	}
	return p
}

// Watch registers the pump's probes with wd, one per goroutine that can
// wedge — worker<i> (idle on the source, source lock included, and on its
// free list; beats per published batch), lane<i> (idle on its queue; beats
// per sub-batch) — and batch for the pump as a whole, so that a lane stuck
// in its filter or a worker stuck in a decode flips /healthz by name.
func (p *Pump) Watch(wd *resilience.Watchdog, stallAfter time.Duration) {
	p.batchProbe = wd.Heartbeat("batch", stallAfter)
	for i, w := range p.workers {
		w.probe = wd.Heartbeat(fmt.Sprintf("worker%d", i), stallAfter)
	}
	for i, l := range p.lanes {
		l.probe = wd.Heartbeat(fmt.Sprintf("lane%d", i), stallAfter)
	}
}

// Run drains the source through the filter until it ends, and returns only
// once every frame read has its verdict. The drain order is what makes a
// snapshot taken afterwards whole: workers joined (every batch read is
// committed) → the shard lanes' pending sub-batches flushed → queues closed
// → lanes joined.
func (p *Pump) Run() error {
	var lanes, workers sync.WaitGroup
	lanes.Add(len(p.lanes))
	for _, l := range p.lanes {
		go func() {
			defer lanes.Done()
			p.runLane(l)
		}()
	}
	workers.Add(len(p.workers) - 1)
	for _, w := range p.workers[1:] {
		go func() {
			defer workers.Done()
			p.work(w)
		}()
	}
	p.work(p.workers[0])
	// Every worker committed what it published or lost the commit lock to a
	// worker that did (commit): with all of them back, nothing is uncommitted.
	workers.Wait()
	for _, l := range p.lanes {
		if l.pending != nil && len(l.pending.pkts) > 0 {
			l.queue <- l.pending
		}
		close(l.queue)
	}
	lanes.Wait()
	// A clean close is silent; anything else is genuinely terminal — the
	// supervisor has already retried everything survivable — and is logged
	// with its error class before it surfaces.
	err := p.srcErr
	if errors.Is(err, io.EOF) || errors.Is(err, capture.ErrClosed) {
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
// frames are counted under the overload policy, never judged, and the pump
// carries on.
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
