package filtering

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bitmapfilter/internal/packet"
)

// Chain composes filter stages into one BatchFilter: every packet flows
// through the stages in order and the first Drop short-circuits — later
// stages never observe a dropped packet, exactly as if the stages were
// separate boxes wired in series on the path. This is the composition
// point for layered defenses (a SYN-validation stage in front of the
// bitmap filter, a TenantSet behind a rate limiter, ...).
//
// The batch path preserves the short-circuit semantics: stage i+1
// receives only the packets stage i admitted, compacted in their original
// order, so a stage's internal state (rotation clock, APD coin sequence)
// evolves identically to per-packet chaining. Grouping is done with
// pooled scratch; a steady-state batch stream allocates nothing beyond
// what the stages themselves allocate.
//
// Chain() with no stages is a pass-everything filter; Chain(f) returns f
// unchanged. The chain keeps its own cumulative Counters (classified by
// the final verdict); MemoryBytes sums the stages and AdvanceTo forwards
// to every stage. The chain adds no locking of its own: it is safe for
// concurrent use iff every stage is.
func Chain(stages ...BatchFilter) BatchFilter {
	switch len(stages) {
	case 0:
		return &chain{}
	case 1:
		return stages[0]
	}
	names := make([]string, len(stages))
	for i, s := range stages {
		names[i] = s.Name()
	}
	return &chain{
		stages: append([]BatchFilter(nil), stages...),
		name:   "chain(" + strings.Join(names, ",") + ")",
	}
}

type chain struct {
	stages []BatchFilter
	name   string

	// Chain-level counters, atomic so concurrent batch pumps through
	// goroutine-safe stages stay race-free.
	outPackets atomic.Uint64
	inPackets  atomic.Uint64
	inPassed   atomic.Uint64
	inDropped  atomic.Uint64
}

var _ BatchFilter = (*chain)(nil)

// chainScratch holds the per-batch survivor-compaction buffers.
type chainScratch struct {
	pkts []packet.Packet
	idx  []int32 // survivor position -> original batch index
	verd []Verdict
}

var chainScratchPool = sync.Pool{New: func() any { return new(chainScratch) }}

// Name identifies the chain and its stages.
func (c *chain) Name() string {
	if c.name == "" {
		return "chain()"
	}
	return c.name
}

// MemoryBytes sums the stages' footprints.
func (c *chain) MemoryBytes() uint64 {
	var total uint64
	for _, s := range c.stages {
		total += s.MemoryBytes()
	}
	return total
}

// AdvanceTo moves every stage's clock forward, including stages a
// short-circuit has been starving of packets.
func (c *chain) AdvanceTo(now time.Duration) {
	for _, s := range c.stages {
		s.AdvanceTo(now)
	}
}

// Counters returns the chain-level counters: each packet is counted once,
// classified by the chain's final verdict.
func (c *chain) Counters() Counters {
	return Counters{
		OutPackets: c.outPackets.Load(),
		InPackets:  c.inPackets.Load(),
		InPassed:   c.inPassed.Load(),
		InDropped:  c.inDropped.Load(),
	}
}

// Process runs one packet through the stages in order; the first Drop
// wins and later stages never see the packet.
func (c *chain) Process(pkt packet.Packet) Verdict {
	v := Pass
	for _, s := range c.stages {
		if s.Process(pkt) == Drop {
			v = Drop
			break
		}
	}
	c.count(pkt, v)
	return v
}

// count records one packet's final verdict in the chain counters.
func (c *chain) count(pkt packet.Packet, v Verdict) {
	if pkt.Dir == packet.Outgoing {
		c.outPackets.Add(1)
		return
	}
	c.inPackets.Add(1)
	if v == Pass {
		c.inPassed.Add(1)
	} else {
		c.inDropped.Add(1)
	}
}

// ProcessBatch implements BatchFilter (nil for an empty batch).
func (c *chain) ProcessBatch(pkts []packet.Packet) []Verdict {
	if len(pkts) == 0 {
		return nil
	}
	out := make([]Verdict, len(pkts))
	c.processBatchInto(pkts, out)
	return out
}

// ProcessBatchInto implements BatchFilter under the standard Into
// contract; see Chain for the batch short-circuit semantics.
func (c *chain) ProcessBatchInto(pkts []packet.Packet, out []Verdict) []Verdict {
	out = GrowVerdicts(out, len(pkts))
	if len(pkts) == 0 {
		return out
	}
	c.processBatchInto(pkts, out)
	return out
}

// processBatchInto fills out (same length as pkts) with the chain's final
// verdicts, feeding each stage only its predecessor's survivors.
func (c *chain) processBatchInto(pkts []packet.Packet, out []Verdict) {
	if len(c.stages) == 0 {
		for i := range out {
			out[i] = Pass
		}
		c.tally(pkts, out)
		return
	}

	// Stage 1 sees the whole batch and writes straight into out.
	c.stages[0].ProcessBatchInto(pkts, out)
	if len(c.stages) > 1 {
		sc := chainScratchPool.Get().(*chainScratch)
		defer chainScratchPool.Put(sc)
		sc.pkts = GrowSlice(sc.pkts, len(pkts))
		sc.idx = GrowSlice(sc.idx, len(pkts))
		sc.verd = GrowSlice(sc.verd, len(pkts))

		// Compact stage 1's survivors (with their original indices) into
		// the scratch; subsequent stages compact in place — the write
		// cursor never passes the read cursor.
		n := 0
		for i := range pkts {
			if out[i] == Pass {
				sc.pkts[n] = pkts[i]
				sc.idx[n] = int32(i)
				n++
			}
		}
		for _, s := range c.stages[1:] {
			if n == 0 {
				break
			}
			s.ProcessBatchInto(sc.pkts[:n], sc.verd[:n])
			m := 0
			for j := 0; j < n; j++ {
				if sc.verd[j] == Pass {
					sc.pkts[m] = sc.pkts[j]
					sc.idx[m] = sc.idx[j]
					m++
				} else {
					out[sc.idx[j]] = Drop
				}
			}
			n = m
		}
	}
	c.tally(pkts, out)
}

// tally folds a batch's final verdicts into the chain counters with four
// atomic adds.
func (c *chain) tally(pkts []packet.Packet, out []Verdict) {
	var outP, inP, passed, dropped uint64
	for i := range pkts {
		if pkts[i].Dir == packet.Outgoing {
			outP++
			continue
		}
		inP++
		if out[i] == Pass {
			passed++
		} else {
			dropped++
		}
	}
	if outP != 0 {
		c.outPackets.Add(outP)
	}
	if inP != 0 {
		c.inPackets.Add(inP)
		c.inPassed.Add(passed)
		c.inDropped.Add(dropped)
	}
}
