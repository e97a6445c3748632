// Package filtering defines the small contract every packet filter in this
// repository implements — the bitmap filter of internal/core and the three
// SPI baselines of internal/flowtable — so that simulations and benchmarks
// can drive them interchangeably.
//
// Filters are driven by virtual time: each packet carries its observation
// timestamp, and filters advance their timers (bitmap rotation, flow-table
// garbage collection) lazily from those timestamps. AdvanceTo exists for
// callers that need to move time forward without traffic.
package filtering

import (
	"time"

	"bitmapfilter/internal/packet"
)

// Verdict is a filter's decision for one packet.
type Verdict uint8

// Filter decisions.
const (
	Pass Verdict = iota + 1
	Drop
)

// String returns "pass" or "drop".
func (v Verdict) String() string {
	switch v {
	case Pass:
		return "pass"
	case Drop:
		return "drop"
	default:
		return "verdict(?)"
	}
}

// PacketFilter is the common interface of all filters under test.
type PacketFilter interface {
	// Process inspects one packet and returns the verdict. Packet
	// timestamps must be non-decreasing; filters use them to drive
	// expiry.
	Process(pkt packet.Packet) Verdict
	// AdvanceTo moves the filter's clock to now, firing any pending
	// rotation or garbage-collection work, without observing a packet.
	AdvanceTo(now time.Duration)
	// Name identifies the filter in reports.
	Name() string
	// MemoryBytes estimates the filter's current state footprint.
	MemoryBytes() uint64
	// Counters returns cumulative packet counters.
	Counters() Counters
}

// BatchFilter is a PacketFilter with a batched data plane. Batch processing
// is behaviorally identical to calling Process per packet, in order — same
// verdicts, counters and expiry work — but amortizes per-packet overheads
// (lock acquisitions, verdict-slice allocation) across the whole batch.
// It has four implementations and three bodies: the bitmap filter's Filter
// and its Group (internal/core), which core.Sharded and the tenant fleet's
// tenant.Set both are beside their routers, and AsBatch's per-packet
// fallback, which is the SPI baselines' batch data plane. A Group judges a
// batch in source order, each packet in the filter its slot names, under
// one lock.
type BatchFilter interface {
	PacketFilter
	// ProcessBatchInto processes pkts in order, storing one verdict per
	// packet in out's backing array, and returns the verdict slice of
	// length len(pkts). When cap(out) >= len(pkts) the backing array is
	// reused and the call performs no allocation; otherwise a larger
	// slice is allocated, exactly like append. Every element of the
	// returned slice is overwritten, so dirty buffers from previous
	// batches may be passed as-is. out may be nil. For an empty batch
	// the result is out[:0] — length 0 with out's backing array
	// retained, so a packet pump that recycles its verdict buffer does
	// not lose it across an idle poll. The empty-batch behavior of every
	// implementation is pinned by TestEmptyBatchContract in this package.
	ProcessBatchInto(pkts []packet.Packet, out []Verdict) []Verdict
}

// GrowVerdicts returns a verdict slice of length n backed by out's array
// when cap(out) >= n, allocating only on growth. This is the resizing rule
// every ProcessBatchInto implementation shares; contents are unspecified
// until written.
func GrowVerdicts(out []Verdict, n int) []Verdict { return GrowSlice(out, n) }

// GrowSlice resizes s to n elements, reallocating only on growth — the
// rule every pooled per-batch scratch buffer follows. Contents are
// unspecified; callers overwrite every element they read.
func GrowSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// AsBatch returns f's batched data plane: filters that already implement
// BatchFilter are returned unchanged, anything else is wrapped with the
// generic per-packet fallback. Drivers (bfexp replay, experiments, daemons) call
// this once and then speak batch everywhere.
func AsBatch(f PacketFilter) BatchFilter {
	if b, ok := f.(BatchFilter); ok {
		return b
	}
	return fallbackBatcher{f}
}

// fallbackBatcher adapts a plain PacketFilter to BatchFilter by looping.
type fallbackBatcher struct {
	PacketFilter
}

func (b fallbackBatcher) ProcessBatchInto(pkts []packet.Packet, out []Verdict) []Verdict {
	out = GrowVerdicts(out, len(pkts))
	for i := range pkts {
		out[i] = b.Process(pkts[i])
	}
	return out
}

// Counters accumulates per-filter packet statistics.
type Counters struct {
	OutPackets uint64 // outgoing packets observed
	InPackets  uint64 // incoming packets observed
	InPassed   uint64 // incoming packets admitted
	InDropped  uint64 // incoming packets dropped
}

// DropRate returns the fraction of incoming packets that were dropped, or 0
// if none were observed.
func (c Counters) DropRate() float64 {
	if c.InPackets == 0 {
		return 0
	}
	return float64(c.InDropped) / float64(c.InPackets)
}

// Add adds o's counts to c: the counters of filters judging apart, summed.
func (c *Counters) Add(o Counters) {
	c.OutPackets += o.OutPackets
	c.InPackets += o.InPackets
	c.InPassed += o.InPassed
	c.InDropped += o.InDropped
}

// Count records a verdict for a packet in the counters.
func (c *Counters) Count(pkt packet.Packet, v Verdict) {
	if pkt.Dir == packet.Outgoing {
		c.OutPackets++
		return
	}
	c.InPackets++
	if v == Pass {
		c.InPassed++
	} else {
		c.InDropped++
	}
}
