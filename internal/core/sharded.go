package core

import (
	"fmt"
	"sync"
	"time"

	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/hashfam"
	"bitmapfilter/internal/packet"
)

// Sharded partitions one logical bitmap filter across S independent
// locked shards so a multi-queue edge router scales across cores without a
// global lock. Table 1 notes hardware acceleration of the bitmap is
// "easy"; sharding is the software equivalent.
//
// Correctness: packets are routed to shards by the same partial-tuple key
// the bitmap hashes, and that key is — by the §3.3 symmetry — identical
// for an outgoing packet and its replies. A flow's marks and lookups
// therefore always meet in the same shard, and the composite behaves
// exactly like a single filter of the same total memory (each shard gets
// the configured order, so total memory is S × the single-filter size —
// size shards accordingly).
type Sharded struct {
	shards []*Safe
	mask   uint64
}

// routerSeed seeds the routing hash. It is part of the sharded snapshot
// contract: a restored shard holds the flows this seed routes to it.
const routerSeed = 0x5ead5ead

var _ filtering.BatchFilter = (*Sharded)(nil)

// NewSharded builds a filter with the given shard count (rounded up to a
// power of two). Options apply to every shard; WithSeed is perturbed per
// shard so the shards' hash families are independent.
//
// An APD policy (WithAPD) is cloned into every shard via PolicyCloner, so
// the independently locked shards never share mutable indicator state;
// clones implementing PolicyShardScaler (BandwidthPolicy) are rescaled to
// the 1/S traffic partition each shard observes. A policy that accumulates
// state (PolicyResetter) but does not implement PolicyCloner is rejected
// with ErrConfig; a policy implementing neither is assumed stateless and
// shared as-is — its methods must then tolerate concurrent calls.
func NewSharded(shardCount int, opts ...Option) (*Sharded, error) {
	if shardCount < 1 {
		return nil, fmt.Errorf("%w: shards=%d", ErrConfig, shardCount)
	}
	n := 1
	for n < shardCount {
		n <<= 1
	}
	// Resolve the configured policy once; the per-shard WithAPD appended
	// below overrides the caller's option with that shard's clone.
	cfg := defaultConfig()
	for _, o := range opts {
		o.apply(&cfg)
	}
	cloner, cloneable := cfg.apd.(PolicyCloner)
	if _, stateful := cfg.apd.(PolicyResetter); stateful && !cloneable {
		return nil, fmt.Errorf("%w: APD policy %q holds mutable state but implements no ClonePolicy; one instance cannot be shared across shard locks",
			ErrConfig, cfg.apd.Name())
	}
	s := &Sharded{
		shards: make([]*Safe, n),
		mask:   uint64(n - 1),
	}
	for i := range s.shards {
		shardOpts := append(append([]Option(nil), opts...),
			withSeedPerturbation(uint64(i)))
		if cloneable {
			p := cloner.ClonePolicy()
			if p == nil {
				return nil, fmt.Errorf("%w: APD policy %q cloned to nil", ErrConfig, cfg.apd.Name())
			}
			if sc, ok := p.(PolicyShardScaler); ok {
				sc.ScaleForShards(n)
			}
			shardOpts = append(shardOpts, WithAPD(p))
		}
		f, err := New(shardOpts...)
		if err != nil {
			return nil, err
		}
		s.shards[i] = NewSafe(f)
	}
	return s, nil
}

// withSeedPerturbation derives a per-shard seed on top of whatever seed
// the caller configured.
type seedPerturbOption uint64

func (o seedPerturbOption) apply(c *config) {
	c.seed ^= uint64(o) * 0x9e3779b97f4a7c15
}

func withSeedPerturbation(i uint64) Option { return seedPerturbOption(i) }

// Shards returns the shard count.
func (s *Sharded) Shards() int { return len(s.shards) }

// Lane hands out shard i, 0 <= i < Shards(), for a caller that judges the
// shards in parallel: one goroutine per lane, fed the packets LaneOf routes
// to it, in arrival order. Lane i then sees exactly the packet sequence
// shard i sees under ProcessBatchInto, so verdicts, marks, rotations and
// APD draws are the same; ProcessBatchInto is the synchronous form of that
// pipeline and the reference it is checked against.
func (s *Sharded) Lane(i int) *Safe { return s.shards[i] }

// LaneOf returns the shard a packet with this tuple and direction belongs
// to. It routes by the direction-symmetric partial-tuple key (§3.3), so a
// flow's marks and lookups meet in one shard.
//
//bf:hotpath
func (s *Sharded) LaneOf(tup packet.Tuple, dir packet.Direction) int {
	var lo, hi uint64
	if dir == packet.Outgoing {
		lo, hi = tup.OutgoingKeyWords()
	} else {
		lo, hi = tup.IncomingKeyWords()
	}
	return int(hashfam.Murmur64Fixed(lo, hi, packet.KeySize, routerSeed) & s.mask)
}

// Name implements filtering.PacketFilter.
func (s *Sharded) Name() string {
	return fmt.Sprintf("sharded{%d x %s}", len(s.shards), s.shards[0].Name())
}

// MemoryBytes implements filtering.PacketFilter (sum over shards).
func (s *Sharded) MemoryBytes() uint64 {
	var total uint64
	for _, sh := range s.shards {
		total += sh.MemoryBytes()
	}
	return total
}

// Counters implements filtering.PacketFilter (sum over shards).
func (s *Sharded) Counters() filtering.Counters {
	var total filtering.Counters
	for _, sh := range s.shards {
		c := sh.Counters()
		total.OutPackets += c.OutPackets
		total.InPackets += c.InPackets
		total.InPassed += c.InPassed
		total.InDropped += c.InDropped
	}
	return total
}

// RotateEvery returns Δt, identical across shards.
func (s *Sharded) RotateEvery() time.Duration { return s.shards[0].RotateEvery() }

// Utilization returns the mean current-vector fill fraction across shards.
// Flow keys spread ~uniformly, so each shard's bitmap holds a 1/S
// partition of the flows and the mean tracks the utilization one filter
// with the same total traffic would report.
func (s *Sharded) Utilization() float64 {
	var sum float64
	for _, sh := range s.shards {
		sum += sh.Utilization()
	}
	return sum / float64(len(s.shards))
}

// APDSpared returns the total number of unmatched incoming packets the
// per-shard APD policies chose to admit (sum over shards).
func (s *Sharded) APDSpared() uint64 {
	var total uint64
	for _, sh := range s.shards {
		total += sh.APDSpared()
	}
	return total
}

// ShardStats returns one introspection snapshot per shard, each taken
// under that shard's lock. The composite is not frozen: traffic may land
// between snapshots, so cross-shard sums are approximate under load.
func (s *Sharded) ShardStats() []Stats {
	out := make([]Stats, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.Stats()
	}
	return out
}

// Stats aggregates a snapshot across shards. Additive fields
// (MemoryBytes, Rotations, Marks, Counters, APDSpared) are summed;
// fractional indicators (Utilization, VectorUtilization,
// PenetrationProbability, APDDropProbability) are averaged — each shard
// sees a 1/S partition of the flows, so the mean estimates the global
// value. Clock fields report the most-advanced shard (Now) and the
// earliest pending rotation (NextRotation); configuration fields,
// CurrentIndex and the APD policy identity come from shard 0.
func (s *Sharded) Stats() Stats {
	per := s.ShardStats()
	agg := per[0]
	agg.VectorUtilization = append([]float64(nil), per[0].VectorUtilization...)
	for _, st := range per[1:] {
		agg.MemoryBytes += st.MemoryBytes
		agg.Rotations += st.Rotations
		agg.Marks += st.Marks
		agg.Counters.OutPackets += st.Counters.OutPackets
		agg.Counters.InPackets += st.Counters.InPackets
		agg.Counters.InPassed += st.Counters.InPassed
		agg.Counters.InDropped += st.Counters.InDropped
		agg.APDSpared += st.APDSpared
		if st.Now > agg.Now {
			agg.Now = st.Now
		}
		if st.NextRotation < agg.NextRotation {
			agg.NextRotation = st.NextRotation
		}
		agg.Utilization += st.Utilization
		agg.PenetrationProbability += st.PenetrationProbability
		agg.APDDropProbability += st.APDDropProbability
		for i := range agg.VectorUtilization {
			agg.VectorUtilization[i] += st.VectorUtilization[i]
		}
	}
	invS := 1 / float64(len(per))
	agg.Utilization *= invS
	agg.PenetrationProbability *= invS
	agg.APDDropProbability *= invS
	for i := range agg.VectorUtilization {
		agg.VectorUtilization[i] *= invS
	}
	return agg
}

// AdvanceTo implements filtering.PacketFilter.
func (s *Sharded) AdvanceTo(now time.Duration) {
	for _, sh := range s.shards {
		sh.AdvanceTo(now)
	}
}

// Process implements filtering.PacketFilter: the packet is handled
// entirely by the shard its flow key routes to.
//
//bf:hotpath
func (s *Sharded) Process(pkt packet.Packet) filtering.Verdict {
	return s.shards[s.LaneOf(pkt.Tuple, pkt.Dir)].Process(pkt)
}

// shardScratch holds the per-batch grouping buffers. Pooled so a steady
// stream of ProcessBatch calls allocates only the returned verdict slice.
type shardScratch struct {
	shardOf    []uint32
	starts     []int
	next       []int
	grouped    []packet.Packet
	perm       []int32
	groupedOut []filtering.Verdict
}

var shardScratchPool = sync.Pool{New: func() any { return new(shardScratch) }}

// ProcessBatch routes every packet in pkts to its shard, runs one locked
// batch per shard, and returns the verdicts in input order. Packets that
// share a shard keep their relative order, so the result is identical to
// calling Process per packet — each shard sees the exact packet sequence
// (and draws the same APD coin flips) it would see sequentially — while a
// batch pays one lock acquisition per touched shard instead of one per
// packet.
func (s *Sharded) ProcessBatch(pkts []packet.Packet) []filtering.Verdict {
	if len(pkts) == 0 {
		return nil
	}
	out := make([]filtering.Verdict, len(pkts))
	s.processBatchInto(pkts, out)
	return out
}

// ProcessBatchInto is ProcessBatch writing into a caller-provided buffer
// (see the filtering.BatchFilter contract). Together with the pooled
// grouping scratch this makes a steady-state batch stream allocation-free.
//
//bf:hotpath
func (s *Sharded) ProcessBatchInto(pkts []packet.Packet, out []filtering.Verdict) []filtering.Verdict {
	out = filtering.GrowVerdicts(out, len(pkts))
	s.processBatchInto(pkts, out)
	return out
}

// processBatchInto fills out (same length as pkts) with one locked batch
// per touched shard.
//
//bf:hotpath
func (s *Sharded) processBatchInto(pkts []packet.Packet, out []filtering.Verdict) {
	if len(s.shards) == 1 {
		s.shards[0].processBatchInto(pkts, out)
		return
	}

	// Counting sort by shard: stable, O(len(pkts) + shards), and the
	// routing hash is computed once per packet. The scratch goes back to
	// the pool via defer so a panicking shard cannot leak it.
	sc := shardScratchPool.Get().(*shardScratch)
	defer shardScratchPool.Put(sc) //bf:allow hotpath pooled put must run even if a shard panics, or the scratch leaks
	sc.shardOf = filtering.GrowSlice(sc.shardOf, len(pkts))
	sc.starts = filtering.GrowSlice(sc.starts, len(s.shards)+1)
	sc.next = filtering.GrowSlice(sc.next, len(s.shards))
	sc.grouped = filtering.GrowSlice(sc.grouped, len(pkts))
	sc.perm = filtering.GrowSlice(sc.perm, len(pkts))
	sc.groupedOut = filtering.GrowSlice(sc.groupedOut, len(pkts))

	clear(sc.starts)
	for i := range pkts {
		sh := uint32(s.LaneOf(pkts[i].Tuple, pkts[i].Dir))
		sc.shardOf[i] = sh
		sc.starts[sh+1]++
	}
	for i := 1; i < len(sc.starts); i++ {
		sc.starts[i] += sc.starts[i-1]
	}
	copy(sc.next, sc.starts[:len(s.shards)])
	for i := range pkts {
		sh := sc.shardOf[i]
		pos := sc.next[sh]
		sc.next[sh]++
		sc.grouped[pos] = pkts[i]
		sc.perm[pos] = int32(i) // grouped position -> original index
	}

	for sh := range s.shards {
		a, b := sc.starts[sh], sc.starts[sh+1]
		if a == b {
			continue
		}
		s.shards[sh].processBatchInto(sc.grouped[a:b], sc.groupedOut[a:b])
	}
	for pos, i := range sc.perm {
		out[i] = sc.groupedOut[pos]
	}
}

// Reset flushes every shard (bitmap, counters and any attached APD
// windows), mirroring Filter.Reset for the sharded composite.
func (s *Sharded) Reset() {
	for _, sh := range s.shards {
		sh.Reset()
	}
}

// PunchHole opens an inbound hole (§5.1) in the shard the flow key routes
// to.
func (s *Sharded) PunchHole(local packet.Addr, localPort uint16, remote packet.Addr, proto packet.Proto) {
	tup := packet.Tuple{Src: local, SrcPort: localPort, Dst: remote, Proto: proto}
	s.shards[s.LaneOf(tup, packet.Outgoing)].PunchHole(local, localPort, remote, proto)
}

// WouldAdmit reports whether an incoming packet with the given tuple would
// currently pass, consulting the owning shard.
func (s *Sharded) WouldAdmit(tup packet.Tuple) bool {
	return s.shards[s.LaneOf(tup, packet.Incoming)].WouldAdmit(tup)
}
