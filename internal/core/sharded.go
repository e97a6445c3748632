package core

import (
	"fmt"

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
// The shards are a Group, judged and aggregated like a tenant.Set's tenants;
// Sharded adds the router, ShardOf, and its slots are [0, S): HashRouted
// and ProcessHashedInto take ShardOf's answer for each packet.
type Sharded struct {
	*Group
	mask uint64
	name string
}

// routerSeed seeds the routing hash. It is part of the sharded snapshot
// contract: a restored shard holds the flows this seed routes to it.
const routerSeed = 0x5ead5ead

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
		shards[i] = f
	}
	return &Sharded{Group: newGroup(shards, 0, nil, filtering.Counters{}), mask: uint64(n - 1),
		name: fmt.Sprintf("sharded{%d x %s}", n, shards[0].Name())}, nil
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
func (s *Sharded) Name() string { return s.name }

// APDSpared returns the total number of unmatched incoming packets the
// per-shard APD policies chose to admit (sum over shards).
func (s *Sharded) APDSpared() uint64 { return s.Stats().APDSpared }

// ShardStats returns one introspection snapshot per shard, all taken under
// the one lock: the composite is frozen while they are read.
func (s *Sharded) ShardStats() []Stats { return s.MemberStats() }

// Process implements filtering.PacketFilter: the packet is handled
// entirely by the shard its flow key routes to.
//
//bf:hotpath
func (s *Sharded) Process(pkt packet.Packet) filtering.Verdict {
	return s.Group.Process(pkt, int32(s.ShardOf(pkt.Tuple, pkt.Dir)))
}

// ProcessBatchInto is Group.ProcessBatchInto routed by ShardOf.
//
//bf:hotpath
func (s *Sharded) ProcessBatchInto(pkts []packet.Packet, out []filtering.Verdict) []filtering.Verdict {
	return s.Group.ProcessBatchInto(pkts, out, s.route)
}

// route writes each packet's ShardOf into slots.
//
//bf:hotpath
func (s *Sharded) route(pkts []packet.Packet, slots []int32) {
	for i := range pkts {
		slots[i] = int32(s.ShardOf(pkts[i].Tuple, pkts[i].Dir))
	}
}

// Reset flushes every shard (bitmap, counters and any attached APD
// windows), mirroring Filter.Reset for the sharded composite.
func (s *Sharded) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sh := range s.filters {
		sh.Reset()
	}
}

// PunchHole opens an inbound hole (§5.1) in the shard the flow key routes
// to.
func (s *Sharded) PunchHole(local packet.Addr, localPort uint16, remote packet.Addr, proto packet.Proto) {
	tup := packet.Tuple{Src: local, SrcPort: localPort, Dst: remote, Proto: proto}
	s.Group.PunchHole(int32(s.ShardOf(tup, packet.Outgoing)), local, localPort, remote, proto)
}

// WouldAdmit reports whether an incoming packet with the given tuple would
// currently pass, consulting the owning shard.
func (s *Sharded) WouldAdmit(tup packet.Tuple) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.filters[s.ShardOf(tup, packet.Incoming)].WouldAdmit(tup)
}
