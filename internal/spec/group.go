package spec

import (
	"time"

	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/hashfam"
	"bitmapfilter/internal/packet"
)

// Group is filters judged as one: Route(tup, dir) names a packet's member,
// and nobody's (−1) pass and count as Unrouted. Shards route by Murmur64 of
// the partial-tuple key under the router seed, over n; tenants by a linear
// scan for the longest of Prefixes holding the client-side address.
type Group struct {
	Members  []*Filter
	Retired  []filtering.Counters // the counters of filters Resize swapped out
	Unrouted filtering.Counters
	Prefixes []packet.Prefix // member i's, for tenants; nil for shards
}

// NewGroup is a filter of each config: tenants, cs[i] owning prefixes[i], or
// with no prefixes shards, shard i's seed perturbed by i.
func NewGroup(cs []Config, prefixes []packet.Prefix) *Group {
	g := &Group{Retired: make([]filtering.Counters, len(cs)), Prefixes: prefixes}
	for i, c := range cs {
		if prefixes == nil {
			c.Seed ^= uint64(i) * 0x9e3779b97f4a7c15
		}
		g.Members = append(g.Members, New(c))
	}
	return g
}

// Route is the member owning a packet (tup, dir).
func (g *Group) Route(tup packet.Tuple, dir packet.Direction) int {
	if g.Prefixes == nil && len(g.Members) == 1 {
		return 0 // a lone filter judges every packet
	}
	if dir == packet.Incoming {
		tup = tup.Reverse() // a reply's key and client are its request's
	}
	if g.Prefixes == nil {
		key := tup.OutgoingKey()
		return int(hashfam.Murmur64(key[:], 0x5ead5ead) % uint64(len(g.Members)))
	}
	best := -1
	for i, p := range g.Prefixes {
		if p.Contains(tup.Src) && (best < 0 || p.Bits > g.Prefixes[best].Bits) {
			best = i
		}
	}
	return best
}

// Process judges p in its member.
func (g *Group) Process(p packet.Packet) filtering.Verdict {
	if i := g.Route(p.Tuple, p.Dir); i >= 0 {
		return g.Members[i].Process(p)
	}
	g.Unrouted.Count(p, filtering.Pass)
	return filtering.Pass
}

// Resize swaps member i for an empty filter of order n with m hashes,
// otherwise alike, advanced to now. The APD window stays: a tenant's policy
// outlives its filter.
func (g *Group) Resize(i int, now time.Duration, n uint, m int) {
	old := g.Members[i]
	g.Retired[i].Add(old.Counters)
	c := old.Config
	c.Order, c.Hashes = n, m
	g.Members[i] = New(c)
	g.Members[i].window = old.window
	g.Members[i].Advance(now)
}
