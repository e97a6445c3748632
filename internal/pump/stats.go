package pump

import (
	"errors"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/xrand"
)

// DecodeClasses names the decode-error classes, in the order
// Snapshot.DecodeErrors counts them. Real links carry traffic the filter
// deliberately refuses to judge (ARP, IPv6, fragments, corrupt frames);
// per-class counters separate "the wire is weird" from "the decoder is
// broken".
var DecodeClasses = [...]string{
	"truncated", "not_ipv4", "malformed", "checksum", "fragmented", "proto", "other",
}

const (
	decTruncated = iota
	decNotIPv4
	decMalformed
	decChecksum
	decFragmented
	decProto
	decOther
)

func decodeClass(err error) int {
	switch {
	case errors.Is(err, packet.ErrTruncated):
		return decTruncated
	case errors.Is(err, packet.ErrNotIPv4):
		return decNotIPv4
	case errors.Is(err, packet.ErrBadIPVersion), errors.Is(err, packet.ErrBadIHL):
		return decMalformed
	case errors.Is(err, packet.ErrBadChecksum):
		return decChecksum
	case errors.Is(err, packet.ErrFragmented):
		return decFragmented
	case errors.Is(err, packet.ErrProto):
		return decProto
	default:
		return decOther
	}
}

// tallies are the pump's counters: written by the workers and the lanes,
// read by Snapshot from any goroutine, so everything is atomic; the latency
// reservoir has its own lock.
type tallies struct {
	frames    atomic.Uint64
	bytes     atomic.Uint64
	truncated atomic.Uint64
	decodeErr [len(DecodeClasses)]atomic.Uint64
	unrouted  atomic.Uint64 // decodable but outside every client subnet

	// Packets judged, by direction and verdict: the judges' filter counters,
	// differenced per batch (count).
	outgoing atomic.Uint64
	incoming atomic.Uint64
	passed   atomic.Uint64
	dropped  atomic.Uint64

	// Batches quarantined by a panic boundary, and the frames they carried
	// (never judged).
	quarantinedBatches atomic.Uint64
	quarantinedFrames  atomic.Uint64

	// foreignCommits counts batches committed by a worker that did not
	// decode them, bufferWaits the times a worker found all its buffers in
	// flight (whoever judges is the bottleneck), commitBusy the ns the lock was
	// held, sourceBusy the ns spent in the source's ReadBatch, under the
	// source lock: the two serial terms of the pump.
	foreignCommits atomic.Uint64
	bufferWaits    atomic.Uint64
	commitBusy     atomic.Int64
	sourceBusy     atomic.Int64

	latency reservoir
}

// intake is what the decode step tallies over one source batch, added to
// the shared counters once at its end.
type intake struct {
	bytes, truncated, unrouted uint64
}

func (s *tallies) addIntake(t intake) {
	s.bytes.Add(t.bytes)
	s.truncated.Add(t.truncated)
	s.unrouted.Add(t.unrouted)
}

// count ends a judge's batch: the filter's counters c become the copy a
// scrape reads, and — unless the judge panicked — what they moved since the
// copy they replace is the batch's direction and verdict tallies. The filter
// counted every packet as it judged it; nobody walks the verdicts again. A
// panicked batch is quarantined and so counted in no tally, and c is still
// the baseline the next batch is differenced against.
//
//bf:hotpath
func (s *tallies) count(shown *counterCopy, c filtering.Counters, judged bool) {
	was := shown.show(c)
	if !judged {
		return
	}
	s.outgoing.Add(c.OutPackets - was.OutPackets)
	s.incoming.Add(c.InPackets - was.InPackets)
	s.passed.Add(c.InPassed - was.InPassed)
	s.dropped.Add(c.InDropped - was.InDropped)
}

// reservoirSize bounds the latency sample set: enough for a stable p99,
// constant memory regardless of run length.
const reservoirSize = 4096

// reservoir is a uniform sample of per-packet latencies; its lock is taken
// once per batch and does work only for the packets that land in the sample.
type reservoir struct {
	mu      sync.Mutex
	rng     *xrand.Rand
	samples []time.Duration
	seen    uint64
	// Skip-ahead state (Li's Algorithm L), live once samples is full: skip
	// arrivals pass unsampled before the next one replaces a random slot; w
	// is the running key threshold the skips are drawn from.
	w    float64
	skip uint64
}

func (r *reservoir) init() {
	r.rng = xrand.New(0xbf0a11)
	r.samples = make([]time.Duration, 0, reservoirSize)
}

// observe folds one batch's wall-clock processing time in: each of the n
// packets is attributed the batch average, which is exactly the per-packet
// cost the saturation question cares about (can the loop keep up), without
// a clock read per packet.
//
// The reservoir is a uniform sample over packets, not batches. Instead of
// a coin per packet it draws how many arrivals to skip until the next
// replacement, so a full reservoir costs one subtraction per batch and
// random draws only per replacement (about reservoirSize·ln(seen/
// reservoirSize) over a run). The draws depend on the arrival count alone:
// a batch of n leaves the reservoir exactly as n single observations do.
func (r *reservoir) observe(elapsed time.Duration, n int) {
	if n <= 0 {
		return
	}
	per := elapsed / time.Duration(n)
	r.mu.Lock()
	defer r.mu.Unlock()
	left := uint64(n)
	r.seen += left
	if len(r.samples) < reservoirSize {
		for ; left > 0 && len(r.samples) < reservoirSize; left-- {
			r.samples = append(r.samples, per)
		}
		if len(r.samples) == reservoirSize {
			r.w = 1
			r.drawSkip()
		}
	}
	for left > r.skip {
		left -= r.skip + 1
		r.samples[r.rng.Intn(reservoirSize)] = per
		r.drawSkip()
	}
	r.skip -= left
}

// drawSkip advances Algorithm L: shrink the threshold by the largest of
// reservoirSize uniform keys, then draw the geometric number of arrivals
// whose keys all exceed it.
func (r *reservoir) drawSkip() {
	r.w *= math.Exp(-r.rng.Exp(1) / reservoirSize)
	r.skip = uint64(r.rng.Exp(1) / -math.Log1p(-r.w))
}

// quantile pair of the reservoir (zeros when nothing was sampled yet).
func (r *reservoir) quantiles(q1, q2 float64) (time.Duration, time.Duration) {
	r.mu.Lock()
	sorted := append([]time.Duration(nil), r.samples...)
	r.mu.Unlock()
	if len(sorted) == 0 {
		return 0, 0
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	at := func(q float64) time.Duration { return sorted[int(q*float64(len(sorted)-1))] }
	return at(q1), at(q2)
}

// Snapshot is the pump as a monitoring plane sees it, in plain values.
type Snapshot struct {
	Frames, Bytes, Truncated uint64
	DecodeErrors             [len(DecodeClasses)]uint64
	Unrouted                 uint64

	Outgoing, Incoming, Passed, Dropped   uint64
	QuarantinedBatches, QuarantinedFrames uint64

	// Per-packet latency, from a batch's read to its last verdict.
	LatencyP50, LatencyP99 time.Duration

	Workers                     int
	ForeignCommits, BufferWaits uint64
	// CommitBusy is the time the commit lock was held, SourceBusy the time
	// spent inside the source's ReadBatch under the source lock (a live
	// source's wait for traffic included).
	CommitBusy, SourceBusy time.Duration
	// Lanes is empty for a single filter.
	Lanes []LaneSnapshot

	// The filter: its name and size as New found them, its counters as of
	// the last batch each judge finished.
	FilterName   string
	FilterMemory uint64
	Counters     filtering.Counters
}

// LaneSnapshot is one lane: a shard's, or the fleet's.
type LaneSnapshot struct {
	Frames, Batches uint64
	QueueDepth      int
	// Stalls counts the commit step finding every sub-batch of a shard's
	// lane in flight; a fleet's lane has none of its own (BufferWaits).
	Stalls uint64
}

// Snapshot reads the tallies and the judges' counter copies; it never
// touches the filter, and never waits for a judge.
func (p *Pump) Snapshot() Snapshot {
	s := Snapshot{
		Frames:             p.frames.Load(),
		Bytes:              p.bytes.Load(),
		Truncated:          p.truncated.Load(),
		Unrouted:           p.unrouted.Load(),
		Outgoing:           p.outgoing.Load(),
		Incoming:           p.incoming.Load(),
		Passed:             p.passed.Load(),
		Dropped:            p.dropped.Load(),
		QuarantinedBatches: p.quarantinedBatches.Load(),
		QuarantinedFrames:  p.quarantinedFrames.Load(),
		Workers:            len(p.workers),
		ForeignCommits:     p.foreignCommits.Load(),
		BufferWaits:        p.bufferWaits.Load(),
		CommitBusy:         time.Duration(p.commitBusy.Load()),
		SourceBusy:         time.Duration(p.sourceBusy.Load()),
		FilterName:         p.name,
		FilterMemory:       p.memory,
	}
	for i := range s.DecodeErrors {
		s.DecodeErrors[i] = p.decodeErr[i].Load()
	}
	s.LatencyP50, s.LatencyP99 = p.latency.quantiles(0.50, 0.99)
	p.shown.addTo(&s.Counters)
	for _, l := range p.lanes {
		l.shown.addTo(&s.Counters)
		s.Lanes = append(s.Lanes, LaneSnapshot{
			Frames:     l.frames.Load(),
			Batches:    l.batches.Load(),
			QueueDepth: len(l.queue),
			Stalls:     l.stalls.Load(),
		})
	}
	return s
}
