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
// shards. Table 1 notes hardware acceleration of the bitmap is "easy";
// sharding is the software analogue.
//
// Correctness: packets are routed to shards by the same partial-tuple key
// the bitmap hashes, and that key is — by the §3.3 symmetry — identical
// for an outgoing packet and its replies. A flow's marks and lookups
// therefore always meet in the same shard, and the composite behaves
// exactly like a single filter of the same total memory (each shard gets
// the configured order, so total memory is S × the single-filter size —
// size shards accordingly).
//
// A shard is judged like a tenant.Set's tenant: the shards are bare
// filters behind the Sharded's one mutex, and a batch comes in the single
// filter's two halves — HashRouted hashes each packet with its shard's
// hasher, on any goroutine, and ProcessHashedInto judges the batch in
// source order, each packet in its own shard, which so sees exactly what
// per-packet Process would feed it.
type Sharded struct {
	mu     sync.Mutex
	shards []*Filter //bf:guardedby mu
	// hashers is each shard's, fixed: HashRouted reads them without the
	// lock.
	hashers []*Hasher
	mask    uint64
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
// each shard's indicator sees its own 1/S partition of the traffic; clones
// implementing PolicyShardScaler (BandwidthPolicy) are rescaled to it. A
// policy that accumulates state (PolicyResetter) but does not implement
// PolicyCloner is rejected with ErrConfig; a policy implementing neither
// is assumed stateless and shared as-is.
func NewSharded(shardCount int, opts ...Option) (*Sharded, error) {
	if shardCount < 1 {
		return nil, fmt.Errorf("%w: shards=%d", ErrConfig, shardCount)
	}
	n := 1
	for n < shardCount {
		n <<= 1
	}
	return buildShards(make([]*Filter, n), opts, func(i int, opts []Option) (*Filter, error) {
		return New(append(opts[:len(opts):len(opts)], withSeedPerturbation(uint64(i)))...)
	})
}

// buildShards fills shards, a power of two of them, and assembles the
// composite over them; NewSharded and the snapshot restore share it. Shard i
// is build(i, opts), opts ending in the shard's own rescaled clone of the APD
// policy when the policy clones (appended, so it overrides the caller's).
func buildShards(shards []*Filter, opts []Option, build func(i int, opts []Option) (*Filter, error)) (*Sharded, error) {
	n := len(shards)
	cfg := defaultConfig()
	for _, o := range opts {
		o.apply(&cfg)
	}
	cloner, cloneable := cfg.apd.(PolicyCloner)
	if _, stateful := cfg.apd.(PolicyResetter); stateful && !cloneable {
		return nil, fmt.Errorf("%w: APD policy %q holds mutable state but implements no ClonePolicy; one instance cannot serve several shards",
			ErrConfig, cfg.apd.Name())
	}
	hashers := make([]*Hasher, n)
	for i := range shards {
		shardOpts := opts
		if cloneable {
			p := cloner.ClonePolicy()
			if p == nil {
				return nil, fmt.Errorf("%w: APD policy %q cloned to nil", ErrConfig, cfg.apd.Name())
			}
			if sc, ok := p.(PolicyShardScaler); ok {
				sc.ScaleForShards(n)
			}
			shardOpts = append(opts[:len(opts):len(opts)], WithAPD(p))
		}
		f, err := build(i, shardOpts)
		if err != nil {
			return nil, err
		}
		shards[i], hashers[i] = f, f.Hasher()
	}
	return &Sharded{shards: shards, hashers: hashers, mask: uint64(n - 1)}, nil
}

// withSeedPerturbation derives a per-shard seed on top of whatever seed
// the caller configured.
type seedPerturbOption uint64

func (o seedPerturbOption) apply(c *config) {
	c.seed ^= uint64(o) * 0x9e3779b97f4a7c15
}

func withSeedPerturbation(i uint64) Option { return seedPerturbOption(i) }

// Shards returns the shard count.
func (s *Sharded) Shards() int { return len(s.hashers) }

// ShardOf returns the shard a packet with this tuple and direction belongs
// to. It routes by the direction-symmetric partial-tuple key (§3.3), so a
// flow's marks and lookups meet in one shard.
//
//bf:hotpath
func (s *Sharded) ShardOf(tup packet.Tuple, dir packet.Direction) int {
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
	s.mu.Lock()
	defer s.mu.Unlock()
	return fmt.Sprintf("sharded{%d x %s}", len(s.shards), s.shards[0].Name())
}

// MemoryBytes implements filtering.PacketFilter (sum over shards).
func (s *Sharded) MemoryBytes() uint64 { return s.Stats().MemoryBytes }

// Counters implements filtering.PacketFilter (sum over shards).
func (s *Sharded) Counters() filtering.Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total filtering.Counters
	for _, sh := range s.shards {
		total.Add(sh.Counters())
	}
	return total
}

// RotateEvery returns Δt, identical across shards.
func (s *Sharded) RotateEvery() time.Duration { return s.Stats().RotateEvery }

// Utilization returns the mean current-vector fill fraction across shards.
// Flow keys spread ~uniformly, so each shard's bitmap holds a 1/S
// partition of the flows and the mean tracks the utilization one filter
// with the same total traffic would report.
func (s *Sharded) Utilization() float64 { return s.Stats().Utilization }

// APDSpared returns the total number of unmatched incoming packets the
// per-shard APD policies chose to admit (sum over shards).
func (s *Sharded) APDSpared() uint64 { return s.Stats().APDSpared }

// ShardStats returns one introspection snapshot per shard, all taken under
// the one lock: the composite is frozen while they are read.
func (s *Sharded) ShardStats() []Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
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
		agg.Counters.Add(st.Counters)
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
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sh := range s.shards {
		sh.AdvanceTo(now)
	}
}

// Process implements filtering.PacketFilter: the packet is handled
// entirely by the shard its flow key routes to.
//
//bf:hotpath
func (s *Sharded) Process(pkt packet.Packet) filtering.Verdict {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shards[s.ShardOf(pkt.Tuple, pkt.Dir)].Process(pkt)
}

// ProcessBatchInto is ShardOf, HashRouted and ProcessHashedInto back to
// back, a chunk at a time under one lock, into arrays on its stack; it
// allocates nothing once out has capacity for the batch, and its verdicts
// and state are per-packet Process's (see the filtering.BatchFilter
// contract).
//
//bf:hotpath
func (s *Sharded) ProcessBatchInto(pkts []packet.Packet, out []filtering.Verdict) []filtering.Verdict {
	out = filtering.GrowVerdicts(out, len(pkts))
	var slots [chunkSize]int32
	var pairs [2 * chunkSize]uint64
	s.mu.Lock()
	defer s.mu.Unlock()
	for at := 0; at < len(pkts); at += chunkSize {
		chunk := pkts[at:min(at+chunkSize, len(pkts))]
		sl := slots[:len(chunk)]
		for i := range chunk {
			sl[i] = int32(s.ShardOf(chunk[i].Tuple, chunk[i].Dir))
		}
		judgeShards(s.shards, chunk, sl, s.HashRouted(chunk, sl, pairs[:0]), out[at:])
	}
	return out
}

// HashRouted is the pure half: dst[2i:2i+2] is the base pair of pkts[i]
// under the hasher of its shard, slots[i] (from ShardOf), dst grown only
// when short. It reads only what never changes, so any goroutine may run it
// while another judges.
//
//bf:hotpath
func (s *Sharded) HashRouted(pkts []packet.Packet, slots []int32, dst []uint64) []uint64 {
	if len(slots) != len(pkts) {
		badSlots("core: HashRouted: %d slots for %d packets", len(slots), len(pkts))
	}
	dst = filtering.GrowSlice(dst, 2*len(pkts))
	for i, slot := range slots {
		dst[2*i], dst[2*i+1] = s.hashers[slot].Pair(&pkts[i])
	}
	return dst
}

// ProcessHashedInto is the ordered half: pkts in source order, each judged
// in the shard of its slot with the pair HashRouted made for it, the
// verdicts into out under the filtering.BatchFilter contract. A length
// mismatch or a slot outside [0, Shards()) is the caller's bug, not
// traffic: it panics before any shard is touched.
//
//bf:hotpath
func (s *Sharded) ProcessHashedInto(pkts []packet.Packet, slots []int32, pairs []uint64, out []filtering.Verdict) []filtering.Verdict {
	if len(slots) != len(pkts) {
		badSlots("core: ProcessHashedInto: %d slots for %d packets", len(slots), len(pkts))
	}
	if len(pairs) != 2*len(pkts) {
		badSlots("core: ProcessHashedInto: %d pair words for %d packets", len(pairs), len(pkts))
	}
	out = filtering.GrowVerdicts(out, len(pkts))
	s.mu.Lock()
	defer s.mu.Unlock()
	judgeShards(s.shards, pkts, slots, pairs, out)
	return out
}

// badSlots is the cold end of the slot contract: the caller broke it, and
// the message is all that is left to do. Kept out of line so the formatting
// stays off the hot path's books.
//
//go:noinline
func badSlots(format string, a, b int) {
	panic(fmt.Sprintf(format, a, b))
}

// judgeShards is the body of both batch entry points; the caller holds the
// lock that guards shards. A first pass range-checks every slot. With shards
// of order ≥ 25 (they share one), packet i+PrefetchAhead's lines are on
// their way while packet i is judged, as in the single filter.
//
//bf:hotpath
func judgeShards(shards []*Filter, pkts []packet.Packet, slots []int32, pairs []uint64, out []filtering.Verdict) {
	for _, slot := range slots {
		if slot < 0 || int(slot) >= len(shards) {
			badSlots("core: shard %d outside [0, %d)", int(slot), len(shards))
		}
	}
	ahead := len(pkts) // i+ahead is past the end: nothing to prefetch
	if shards[0].prefetching {
		ahead = min(PrefetchAhead, len(pkts))
		for j := 0; j < ahead; j++ {
			shards[slots[j]].prefetch(pkts[j].Dir, pairs[2*j], pairs[2*j+1])
		}
	}
	for i, slot := range slots[:len(pkts)] {
		if j := i + ahead; j < len(pkts) {
			shards[slots[j]].prefetch(pkts[j].Dir, pairs[2*j], pairs[2*j+1])
		}
		out[i] = shards[slot].JudgeHashed(&pkts[i], pairs[2*i], pairs[2*i+1])
	}
}

// Reset flushes every shard (bitmap, counters and any attached APD
// windows), mirroring Filter.Reset for the sharded composite.
func (s *Sharded) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sh := range s.shards {
		sh.Reset()
	}
}

// PunchHole opens an inbound hole (§5.1) in the shard the flow key routes
// to.
func (s *Sharded) PunchHole(local packet.Addr, localPort uint16, remote packet.Addr, proto packet.Proto) {
	tup := packet.Tuple{Src: local, SrcPort: localPort, Dst: remote, Proto: proto}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.shards[s.ShardOf(tup, packet.Outgoing)].PunchHole(local, localPort, remote, proto)
}

// WouldAdmit reports whether an incoming packet with the given tuple would
// currently pass, consulting the owning shard.
func (s *Sharded) WouldAdmit(tup packet.Tuple) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shards[s.ShardOf(tup, packet.Incoming)].WouldAdmit(tup)
}
