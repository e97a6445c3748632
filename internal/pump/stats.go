package pump

import (
	"errors"
	"math/bits"
	"sync/atomic"
	"time"

	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/packet"
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

// tallies are the pump's counters: written by the workers, read by Snapshot
// from any goroutine, so everything is atomic, the latency histogram's
// buckets too.
type tallies struct {
	frames    atomic.Uint64
	bytes     atomic.Uint64
	truncated atomic.Uint64
	decodeErr [len(DecodeClasses)]atomic.Uint64
	unrouted  atomic.Uint64 // decodable but outside every client subnet

	// Packets judged, by direction and verdict: the filter's counters,
	// differenced per batch (count).
	outgoing atomic.Uint64
	incoming atomic.Uint64
	passed   atomic.Uint64
	dropped  atomic.Uint64

	// Batches quarantined by a panic boundary, and the frames they carried
	// that no other tally counts (never judged): all of them at the decode,
	// the packets the filter was handed at the judge.
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

	// The parallel stages' clocks, ns: the workers' decode (decode, classify
	// and, for shards, ShardOf) and hash.
	decodeBusy atomic.Int64
	hashBusy   atomic.Int64

	latency histogram
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

// count ends a judge's batch: the filter's counters become the copy a
// scrape reads, and — unless the judge panicked — what they moved since the
// copy they replace is the batch's direction and verdict tallies. The filter
// counted every packet as it judged it; nobody walks the verdicts again. A
// panicked batch is quarantined and so counted in no tally, and the counters
// are still the baseline the next batch is differenced against.
//
//bf:hotpath
func (p *Pump) count(judged bool) {
	c := p.bf.Counters()
	was := p.shown.show(c)
	if !judged {
		return
	}
	p.outgoing.Add(c.OutPackets - was.OutPackets)
	p.incoming.Add(c.InPackets - was.InPackets)
	p.passed.Add(c.InPassed - was.InPassed)
	p.dropped.Add(c.InDropped - was.InDropped)
}

// The latency histogram's grid: values below 16 ns have a bucket each, and
// every power of two above is cut into latencySub buckets, so a bucket's
// upper bound is at most 1/latencySub above any value in it. Sized for every
// uint64, so no index is out of range.
const (
	latencySubBits = 3
	latencySub     = 1 << latencySubBits
	latencyBuckets = (64 - latencySubBits + 1) * latencySub
)

// histogram counts per-packet latencies on a log-linear grid of
// nanoseconds: one atomic add to record, a walk of the counts to read.
type histogram struct {
	counts [latencyBuckets]atomic.Uint64
}

// latencyBucket is v's bucket: its top latencySubBits+1 bits select it
// within its power of two.
//
//bf:hotpath
func latencyBucket(v uint64) int {
	shift := max(bits.Len64(v)-latencySubBits-1, 0)
	return shift*latencySub + int(v>>shift)
}

// latencyUpper is the largest value bucket i holds.
func latencyUpper(i int) uint64 {
	shift := max(i/latencySub-1, 0)
	return uint64(i-shift*latencySub+1)<<shift - 1
}

// observe folds one batch's wall-clock processing time in: each of the n
// packets is attributed the batch average, which is exactly the per-packet
// cost the saturation question cares about (can the loop keep up), without
// a clock read per packet. A batch of n counts as n single observations of
// that average.
//
//bf:hotpath
func (h *histogram) observe(elapsed time.Duration, n int) {
	if n <= 0 {
		return
	}
	h.counts[latencyBucket(uint64(elapsed/time.Duration(n)))].Add(uint64(n))
}

// quantile is the upper bound of the bucket holding the packet at rank
// ⌊q·total⌋+1: never below the exact value, at most 1/latencySub above it,
// and 0 before the first observation.
func (h *histogram) quantile(q float64) time.Duration {
	var total uint64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	if total == 0 {
		return 0
	}
	rank, seen := uint64(q*float64(total)), uint64(0)
	for i := range h.counts {
		// Counts only grow, so the walk reaches rank even while observe adds.
		if seen += h.counts[i].Load(); seen > rank {
			return time.Duration(latencyUpper(i))
		}
	}
	return 0
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
	// DecodeBusy and HashBusy are the workers' time decoding (decode,
	// classify and, for shards, ShardOf) and hashing (Hasher.HashBatch for a
	// single filter, HashRouted for a routed filter), summed over the
	// workers.
	DecodeBusy, HashBusy time.Duration

	// The filter: its name and size as New found them, its counters as of
	// the last batch judged.
	FilterName   string
	FilterMemory uint64
	Counters     filtering.Counters
}

// Snapshot reads the tallies and the counter copy the judge left; it never
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
		DecodeBusy:         time.Duration(p.decodeBusy.Load()),
		HashBusy:           time.Duration(p.hashBusy.Load()),
		FilterName:         p.name,
		FilterMemory:       p.memory,
		Counters:           p.shown.get(),
	}
	for i := range s.DecodeErrors {
		s.DecodeErrors[i] = p.decodeErr[i].Load()
	}
	s.LatencyP50, s.LatencyP99 = p.latency.quantile(0.50), p.latency.quantile(0.99)
	return s
}
