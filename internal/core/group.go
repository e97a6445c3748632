package core

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/packet"
)

// Group is N filters judged as one, the paper's one filter per client
// network (§3.2) side by side: Sharded and tenant.Set are each a Group and a
// router that names, for every packet, the member that judges it, its slot.
//
// The members are bare filters behind the group's one mutex. A batch comes
// in the single filter's two halves: HashRouted hashes each packet with its
// member's hasher, on any goroutine, and ProcessHashedInto judges the batch
// in source order, each packet in its member, which so sees exactly what
// per-packet Process would feed it. Every other method that reaches a member
// takes the lock too, so a scrape, a punch or a resize waits for at most the
// batch in flight. The slots are fixed at construction: [0, N) for shards,
// [−1, N) for a fleet, −1 a packet no member owns, passed and counted.
type Group struct {
	mu      sync.Mutex
	filters []*Filter //bf:guardedby mu
	// retired is each member's baseline, the counters of the filters Resize
	// swapped out, so cumulative totals survive a swap.
	retired  []filtering.Counters //bf:guardedby mu
	unrouted filtering.Counters   //bf:guardedby mu
	// prefetching: some member has outgrown the cache (see judge). It stays
	// set; a member small enough to stay in cache ignores the hint.
	prefetching bool //bf:guardedby mu
	// slots is ProcessBatchInto's scratch, one chunk's: here, not on its
	// stack, because the router that writes them is a func value, and the
	// compiler moves what one is handed to the heap.
	slots [chunkSize]int32 //bf:guardedby mu
	// hashers is each member's first filter's, fixed: a resize keeps the
	// seed and the tuple policy, so HashRouted reads them without the lock.
	hashers []*Hasher
	minSlot int32 // the lowest valid slot: −1 for a fleet, 0 for shards
}

// newGroup assembles a group over members, which it owns from then on.
func newGroup(members []*Filter, minSlot int32, retired []filtering.Counters, unrouted filtering.Counters) *Group {
	hashers := make([]*Hasher, len(members))
	prefetching := false
	for i, f := range members {
		hashers[i] = f.hasher
		prefetching = prefetching || f.prefetching
	}
	if retired == nil {
		retired = make([]filtering.Counters, len(members))
	}
	return &Group{filters: members, retired: retired, unrouted: unrouted, prefetching: prefetching, hashers: hashers, minSlot: minSlot}
}

// NewFleet builds a fleet's group over members (at least one), which it owns
// from then on. retired and unrouted are the counters a restored fleet
// resumes from (nil and zero for a new one): each member's baseline and the
// unrouted packets'.
func NewFleet(members []*Filter, retired []filtering.Counters, unrouted filtering.Counters) *Group {
	return newGroup(members, -1, retired, unrouted)
}

// Process judges one packet in the member of its slot, or passes and counts
// it when the slot is −1 in a fleet.
//
//bf:hotpath
func (g *Group) Process(pkt packet.Packet, slot int32) filtering.Verdict {
	g.mu.Lock()
	defer g.mu.Unlock()
	if slot < 0 && g.minSlot < 0 {
		g.unrouted.Count(pkt, filtering.Pass)
		return filtering.Pass
	}
	return g.filters[slot].Process(pkt)
}

// ProcessBatchInto is route, HashRouted and ProcessHashedInto back to back, a
// chunk at a time under one lock: route writes the slot of every packet of
// a chunk. It allocates nothing once out has capacity for the batch, and its
// verdicts and state are per-packet Process's (see the filtering.BatchFilter
// contract).
//
//bf:hotpath
func (g *Group) ProcessBatchInto(pkts []packet.Packet, out []filtering.Verdict, route func(pkts []packet.Packet, slots []int32)) []filtering.Verdict {
	out = filtering.GrowVerdicts(out, len(pkts))
	var pairs [2 * chunkSize]uint64
	g.mu.Lock()
	defer g.mu.Unlock()
	for at := 0; at < len(pkts); at += chunkSize {
		chunk := pkts[at:min(at+chunkSize, len(pkts))]
		sl := g.slots[:len(chunk)]
		route(chunk, sl)
		g.judge(chunk, sl, g.HashRouted(chunk, sl, pairs[:0]), out[at:])
	}
	return out
}

// HashRouted is the pure half: dst[2i:2i+2] is the base pair of pkts[i]
// under the hasher of its slot, slots[i] ((0, 0) for −1), dst grown only when
// short. It reads only what never changes, so any goroutine may run it while
// another judges, across a Resize too.
//
//bf:hotpath
func (g *Group) HashRouted(pkts []packet.Packet, slots []int32, dst []uint64) []uint64 {
	if len(slots) != len(pkts) {
		badSlots("core: HashRouted: %d slots for %d packets", len(slots), len(pkts))
	}
	dst = filtering.GrowSlice(dst, 2*len(pkts))
	for i, slot := range slots {
		var h1, h2 uint64
		if slot >= 0 {
			h1, h2 = g.hashers[slot].Pair(&pkts[i])
		}
		dst[2*i], dst[2*i+1] = h1, h2
	}
	return dst
}

// ProcessHashedInto is the ordered half: pkts in source order, each judged
// in the member of its slot with the pair HashRouted made for it, the
// verdicts into out under the filtering.BatchFilter contract. A length
// mismatch or a slot outside the group's range is the caller's bug, not
// traffic: it panics before any member or counter is touched.
//
//bf:hotpath
func (g *Group) ProcessHashedInto(pkts []packet.Packet, slots []int32, pairs []uint64, out []filtering.Verdict) []filtering.Verdict {
	if len(slots) != len(pkts) {
		badSlots("core: ProcessHashedInto: %d slots for %d packets", len(slots), len(pkts))
	}
	if len(pairs) != 2*len(pkts) {
		badSlots("core: ProcessHashedInto: %d pair words for %d packets", len(pairs), len(pkts))
	}
	out = filtering.GrowVerdicts(out, len(pkts))
	g.mu.Lock()
	defer g.mu.Unlock()
	g.judge(pkts, slots, pairs, out)
	return out
}

// badSlots is the cold end of the slot contract: the caller broke it, and
// the message is all that is left to do. Kept out of line so the formatting
// stays off the hot path's books.
//
//go:noinline
func badSlots(format string, a ...int) {
	args := make([]any, len(a))
	for i, v := range a {
		args[i] = v
	}
	panic(fmt.Sprintf(format, args...))
}

// judge is the body of both batch entry points; the caller holds the lock.
// A first pass range-checks every slot. With a member of order ≥ 25 in the
// group, packet i+prefetchAhead's lines are on their way while packet i is
// judged, as in the single filter.
//
//bf:hotpath
//bf:allow lockguard the callers hold g.mu
func (g *Group) judge(pkts []packet.Packet, slots []int32, pairs []uint64, out []filtering.Verdict) {
	filters := g.filters
	for _, slot := range slots {
		if slot < g.minSlot || int(slot) >= len(filters) {
			badSlots("core: slot %d outside [%d, %d)", int(slot), int(g.minSlot), len(filters))
		}
	}
	ahead := len(pkts) // i+ahead is past the end: nothing to prefetch
	if g.prefetching {
		ahead = min(prefetchAhead, len(pkts))
		for j := 0; j < ahead; j++ {
			prefetchSlot(filters, pkts, slots, pairs, j)
		}
	}
	for i, slot := range slots[:len(pkts)] {
		if j := i + ahead; j < len(pkts) {
			prefetchSlot(filters, pkts, slots, pairs, j)
		}
		if slot < 0 {
			out[i] = filtering.Pass
			g.unrouted.Count(pkts[i], filtering.Pass)
			continue
		}
		out[i] = filters[slot].judge(&pkts[i], pairs[2*i], pairs[2*i+1])
	}
}

// prefetchSlot starts packet j's lines on their way in its member, if the
// packet has one and the member outgrows the cache.
//
//bf:hotpath
func prefetchSlot(filters []*Filter, pkts []packet.Packet, slots []int32, pairs []uint64, j int) {
	if slot := slots[j]; slot >= 0 && filters[slot].prefetching {
		filters[slot].prefetch(pkts[j].Dir, pairs[2*j], pairs[2*j+1])
	}
}

// Prefetches reports whether the group prefetches ahead of the packet it
// judges: some member, now or before a resize, outgrew the cache.
func (g *Group) Prefetches() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.prefetching
}

// PunchHole opens an inbound hole (§5.1) in the member of slot.
func (g *Group) PunchHole(slot int32, local packet.Addr, localPort uint16, remote packet.Addr, proto packet.Proto) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.filters[slot].PunchHole(local, localPort, remote, proto)
}

// AdvanceTo implements filtering.PacketFilter: every member's clock moves
// forward, so an idle member expires its marks on schedule even when all
// traffic lands elsewhere.
func (g *Group) AdvanceTo(now time.Duration) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, f := range g.filters {
		f.AdvanceTo(now)
	}
}

// Resize swaps fleet member i for an empty filter of order n with m hash
// functions and the member's k, Δt, seed and mark and tuple policies (opts,
// an APD policy say, apply beneath those), advanced to now. The member keeps
// its hasher, so pairs hashed before the swap stay valid; the retired
// filter's counters fold into the member's baseline. It returns the
// replacement's rotation count. Shards share one geometry: ErrConfig.
func (g *Group) Resize(i int, now time.Duration, n uint, m int, opts ...Option) (rotations uint64, err error) {
	if g.minSlot == 0 {
		return 0, fmt.Errorf("%w: a shard is not resized", ErrConfig)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	old := g.filters[i]
	c := old.cfg
	nf, err := New(append(opts[:len(opts):len(opts)],
		WithVectors(c.vectors), WithRotateEvery(c.rotateEvery), WithSeed(c.seed),
		WithMarkPolicy(c.markPolicy), WithTuplePolicy(c.tuplePolicy),
		WithOrder(n), WithHashes(m))...)
	if err != nil {
		return 0, err
	}
	nf.AdvanceTo(now)
	g.retired[i].Add(old.counters)
	g.filters[i] = nf
	g.prefetching = g.prefetching || nf.prefetching
	return nf.rotations, nil
}

// WriteMembers serializes the group under one hold of the lock, one
// quiesced point in time: head gets the unrouted counters, then member each
// member's index, its v2 snapshot (valid during the call only) and its
// baseline, in order. It stops at the first error.
func (g *Group) WriteMembers(head func(unrouted filtering.Counters) error, member func(i int, snap []byte, retired filtering.Counters) error) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := head(g.unrouted); err != nil {
		return err
	}
	var snap bytes.Buffer
	for i, f := range g.filters {
		snap.Reset()
		if err := f.WriteSnapshot(&snap); err != nil {
			return err
		}
		if err := member(i, snap.Bytes(), g.retired[i]); err != nil {
			return err
		}
	}
	return nil
}

// MemberStats returns one snapshot per member, its baseline folded into its
// counters, all taken under one hold of the lock.
func (g *Group) MemberStats() []Stats {
	per, _ := g.stats()
	return per
}

// stats is MemberStats and the unrouted counters of the same instant.
func (g *Group) stats() ([]Stats, filtering.Counters) {
	g.mu.Lock()
	defer g.mu.Unlock()
	per := make([]Stats, len(g.filters))
	for i, f := range g.filters {
		per[i] = f.Stats()
		per[i].Counters.Add(g.retired[i])
	}
	return per, g.unrouted
}

// Stats aggregates MemberStats. Additive fields (MemoryBytes, Rotations,
// Marks, Counters, APDSpared) are summed, and the unrouted packets count in
// Counters; fractional indicators (Utilization, VectorUtilization,
// PenetrationProbability, APDDropProbability) are averaged — each member
// sees its own partition of the flows, so the mean estimates the global
// value — VectorUtilization only while the members agree on k, nil
// otherwise. Clock fields report the most-advanced member (Now), the
// earliest pending rotation (NextRotation) and the shortest period
// (RotateEvery); the other configuration fields, CurrentIndex and the APD
// policy identity come from member 0.
func (g *Group) Stats() Stats {
	per, unrouted := g.stats()
	agg := per[0] // per is this call's own: its slices are agg's to change
	for _, st := range per[1:] {
		agg.MemoryBytes += st.MemoryBytes
		agg.Rotations += st.Rotations
		agg.Marks += st.Marks
		agg.Counters.Add(st.Counters)
		agg.APDSpared += st.APDSpared
		agg.Now = max(agg.Now, st.Now)
		agg.NextRotation = min(agg.NextRotation, st.NextRotation)
		agg.RotateEvery = min(agg.RotateEvery, st.RotateEvery)
		agg.Utilization += st.Utilization
		agg.PenetrationProbability += st.PenetrationProbability
		agg.APDDropProbability += st.APDDropProbability
		if len(st.VectorUtilization) != len(agg.VectorUtilization) {
			agg.VectorUtilization = nil
		}
		for i := range agg.VectorUtilization {
			agg.VectorUtilization[i] += st.VectorUtilization[i]
		}
	}
	inv := 1 / float64(len(per))
	agg.Utilization *= inv
	agg.PenetrationProbability *= inv
	agg.APDDropProbability *= inv
	for i := range agg.VectorUtilization {
		agg.VectorUtilization[i] *= inv
	}
	agg.Counters.Add(unrouted)
	return agg
}

// Counters implements filtering.PacketFilter: the cumulative totals across
// every member, retired filters included, plus the unrouted packets.
func (g *Group) Counters() filtering.Counters {
	g.mu.Lock()
	defer g.mu.Unlock()
	total := g.unrouted
	for i, f := range g.filters {
		total.Add(g.retired[i])
		total.Add(f.counters)
	}
	return total
}

// UnroutedPackets returns how many packets had slot −1 and were passed
// unfiltered.
func (g *Group) UnroutedPackets() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.unrouted.OutPackets + g.unrouted.InPackets
}

// MemoryBytes implements filtering.PacketFilter (sum over members).
func (g *Group) MemoryBytes() uint64 { return g.Stats().MemoryBytes }

// Utilization returns the mean current-vector fill fraction across members
// (see Stats; MemberStats has each member's own).
func (g *Group) Utilization() float64 { return g.Stats().Utilization }

// RotateEvery returns the shortest rotation period across members: the
// cadence a background ticker must match so every member's rotations fire
// on schedule.
func (g *Group) RotateEvery() time.Duration { return g.Stats().RotateEvery }
