// Package tenant is the multi-tenant data plane: one Set routes every
// packet to the per-subnet bitmap filter owning it, so an ISP edge
// protects thousands of client networks behind a single BatchFilter.
//
// The paper deploys one filter per client network (§3.2); Set scales the
// deployment out. Each tenant is a {prefix, filter} pair — a bare
// core.Filter built from an ordinary option bundle, behind the Set's one
// lock. Routing is by the longest matching prefix of the packet's
// client-side address (the source of an outgoing packet, the destination
// of an incoming one — the same §3.3 symmetry the filter keys on), so a
// flow's outgoing marks and its replies always meet in the same tenant
// filter. Packets no configured prefix covers are passed through
// unfiltered and counted.
//
// A batch is judged in the single filter's two halves: HashRouted hashes
// each packet with its tenant's hasher, on any goroutine, and
// ProcessHashedInto judges the batch in source order, each packet in its
// tenant's filter — which so sees what per-packet Process would feed it.
//
// A Set optionally carries a Budget (see budget.go): a global memory
// pool carved into per-tenant {order, hashes} plans from each tenant's
// observed flow count, shrinking idle tenants and growing hot ones at
// rotation boundaries.
package tenant

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bitmapfilter/internal/core"
	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/packet"
)

// ErrConfig is returned for invalid tenant-set configurations.
var ErrConfig = errors.New("tenant: invalid tenant set configuration")

// maxTenants bounds the fleet size (and the snapshot section count).
const maxTenants = 1 << 16

// maxIDLen bounds tenant identifiers (they ride in snapshot headers and
// metric labels).
const maxIDLen = 256

// Config describes one tenant: its identifier (stable across restarts —
// it keys snapshot sections and metric labels), the client prefix it
// owns, and the filter option bundle to build for it with core.New. A
// tenant is always a bare filter: WithShards is rejected with
// core.ErrConfig.
type Config struct {
	ID      string
	Prefix  packet.Prefix
	Options []core.Option
}

// SetConfig configures NewSet.
type SetConfig struct {
	Tenants []Config
	// Budget optionally attaches the shared-memory auto-tuner; see
	// Budget. Nil means every tenant keeps its configured geometry.
	Budget *Budget
}

// tenantState is one tenant's runtime slot. The filter pointer is
// swapped by Rebalance (under the Set's lock); everything else is fixed at
// construction.
type tenantState struct {
	id     string
	prefix packet.Prefix
	// opts is the tenant's base option bundle, replayed (with geometry
	// overrides appended) when Rebalance rebuilds the filter.
	opts []core.Option

	// filter, baseline and planRotations are guarded by the owning Set's
	// mu, which dispatch and the control plane (stats, punches, Rebalance,
	// snapshots) both take — a cross-struct discipline the lockguard
	// marker cannot express, so it is enforced by review and the -race
	// suite.
	filter *core.Filter
	// baseline accumulates the counters of filters retired by resizes,
	// so cumulative totals survive swaps.
	baseline filtering.Counters
	// planRotations is filter.Stats().Rotations when the current
	// geometry was (re)planned; Rebalance only reconsiders a tenant
	// after its filter has rotated past it.
	planRotations uint64
}

// Set is the multi-tenant data plane. It implements filtering.BatchFilter
// and the snapshot/introspection surface of the core flavors, so it can be
// judged through, scraped and checkpointed like a single filter.
//
// Concurrency: every method that touches a tenant filter — dispatch,
// AdvanceTo, Stats, TenantStats, Utilization, PunchHole, Rebalance and
// snapshot writes — takes the Set's one mutex and sees a quiesced fleet.
// Its bare tenants are therefore safe under any number of callers: a
// scrape waits for at most the batch in flight, and two pumps take turns.
type Set struct {
	mu      sync.Mutex
	tenants []*tenantState
	byID    map[string]int
	// routes maps a client-side address to its tenant's index: the same
	// longest-prefix table the pump classifies direction with. Fixed at
	// construction (Rebalance swaps filters, never prefixes).
	routes *packet.PrefixTable
	// hashers is each slot's first filter's: Rebalance keeps seed and
	// tuple policy, so a pair stays valid. Fixed; read without the lock.
	hashers []*core.Hasher
	budget  *Budget
	// prefetching: some tenant filter has prefetched (see judge). Guarded
	// by mu; it stays set, a small filter ignoring the hint.
	prefetching bool

	// Unrouted packets are passed through unfiltered; counted here
	// (atomically, so UnroutedPackets reads them without the lock) and
	// folded into Counters.
	unroutedOut atomic.Uint64
	unroutedIn  atomic.Uint64
}

var _ filtering.BatchFilter = (*Set)(nil)
var _ core.Snapshottable = (*Set)(nil)

// NewSet builds the fleet: every tenant's filter is constructed from its
// option bundle via core.New, and the prefix table is compiled. IDs
// must be unique, non-empty and at most 256 bytes; prefixes must be
// unique (overlap is fine — longest match wins).
func NewSet(cfg SetConfig) (*Set, error) {
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("%w: no tenants", ErrConfig)
	}
	if len(cfg.Tenants) > maxTenants {
		return nil, fmt.Errorf("%w: %d tenants (max %d)", ErrConfig, len(cfg.Tenants), maxTenants)
	}
	if cfg.Budget != nil {
		if err := cfg.Budget.validate(); err != nil {
			return nil, err
		}
	}
	states := make([]*tenantState, len(cfg.Tenants))
	for i, tc := range cfg.Tenants {
		f, err := core.New(tc.Options...)
		if err != nil {
			return nil, fmt.Errorf("tenant %q: %w", tc.ID, err)
		}
		states[i] = &tenantState{
			id:     tc.ID,
			prefix: tc.Prefix,
			opts:   append([]core.Option(nil), tc.Options...),
			filter: f,
		}
	}
	return newSetFromStates(states, cfg.Budget)
}

// newSetFromStates validates identifiers and prefixes, compiles the
// routing table, and assembles the Set. Shared by NewSet and the snapshot
// restore path.
func newSetFromStates(states []*tenantState, budget *Budget) (*Set, error) {
	byID := make(map[string]int, len(states))
	prefixes := make([]packet.Prefix, len(states))
	hashers := make([]*core.Hasher, len(states))
	prefetching := false
	owned := make(map[packet.Prefix]struct{}, len(states))
	for i, st := range states {
		if st.id == "" || len(st.id) > maxIDLen {
			return nil, fmt.Errorf("%w: tenant %d: id must be 1..%d bytes", ErrConfig, i, maxIDLen)
		}
		if _, dup := byID[st.id]; dup {
			return nil, fmt.Errorf("%w: duplicate tenant id %q", ErrConfig, st.id)
		}
		byID[st.id] = i
		// Two tenants cannot own the same subnet; the table itself would
		// quietly route it to the first.
		canon := packet.PrefixFrom(st.prefix.Base, st.prefix.Bits)
		if _, dup := owned[canon]; dup {
			return nil, fmt.Errorf("%w: duplicate prefix %v", ErrConfig, st.prefix)
		}
		owned[canon] = struct{}{}
		prefixes[i] = st.prefix
		hashers[i] = st.filter.Hasher()
		prefetching = prefetching || st.filter.Prefetches()
	}
	return &Set{tenants: states, byID: byID, routes: packet.NewPrefixTable(prefixes), hashers: hashers, budget: budget, prefetching: prefetching}, nil
}

// Tenants returns the number of tenants.
func (s *Set) Tenants() int { return len(s.tenants) }

// Name implements filtering.PacketFilter.
func (s *Set) Name() string { return fmt.Sprintf("tenants(%d)", len(s.tenants)) }

// UnroutedPackets returns how many packets matched no tenant prefix and
// were passed through unfiltered.
func (s *Set) UnroutedPackets() uint64 {
	return s.unroutedOut.Load() + s.unroutedIn.Load()
}

// clientAddr returns the packet's client-side address — the one tenant
// prefixes are defined over: the source of an outgoing packet, the
// destination of an incoming one (the same symmetry the filter keys on).
//
//bf:hotpath
func clientAddr(pkt *packet.Packet) packet.Addr {
	if pkt.Dir == packet.Outgoing {
		return pkt.Tuple.Src
	}
	return pkt.Tuple.Dst
}

// Process implements filtering.PacketFilter: the packet is handled
// entirely by the tenant its client address routes to; unrouted packets
// pass unfiltered.
//
//bf:hotpath
func (s *Set) Process(pkt packet.Packet) filtering.Verdict {
	s.mu.Lock()
	defer s.mu.Unlock()
	slot := s.routes.Lookup(clientAddr(&pkt))
	if slot < 0 {
		s.countUnrouted(pkt.Dir)
		return filtering.Pass
	}
	return s.tenants[slot].filter.Process(pkt)
}

//bf:hotpath
func (s *Set) countUnrouted(dir packet.Direction) {
	if dir == packet.Outgoing {
		s.unroutedOut.Add(1)
	} else {
		s.unroutedIn.Add(1)
	}
}

// chunkSize is how many packets ProcessBatchInto routes and hashes ahead of
// judging them, into arrays on its stack.
const chunkSize = 32

// ProcessBatchInto is HashRouted and ProcessHashedInto back to back, a chunk
// at a time under one lock, with the slots looked up in Routes; it allocates
// nothing once out has capacity for the batch.
//
//bf:hotpath
func (s *Set) ProcessBatchInto(pkts []packet.Packet, out []filtering.Verdict) []filtering.Verdict {
	out = filtering.GrowVerdicts(out, len(pkts))
	var slots [chunkSize]int32
	var pairs [2 * chunkSize]uint64
	s.mu.Lock()
	defer s.mu.Unlock()
	for at := 0; at < len(pkts); at += chunkSize {
		chunk := pkts[at:min(at+chunkSize, len(pkts))]
		sl := slots[:len(chunk)]
		for i := range chunk {
			sl[i] = s.routes.Lookup(clientAddr(&chunk[i]))
		}
		s.judge(chunk, sl, s.HashRouted(chunk, sl, pairs[:0]), out[at:])
	}
	return out
}

// Routes returns the table the Set routes with: Lookup of a packet's
// client-side address (packet.PrefixTable.ClassifySlot's slot) is the slot
// HashRouted and ProcessHashedInto take for it. Immutable, like the
// prefixes.
func (s *Set) Routes() *packet.PrefixTable { return s.routes }

// HashRouted is the fleet's pure half: dst[2i:2i+2] is the base pair of
// pkts[i] under the hasher of its slot, slots[i] (from Routes; (0, 0) for -1,
// no tenant), dst grown only when short. It reads only what never changes,
// so any goroutine may run it while another judges, across a Rebalance too.
//
//bf:hotpath
func (s *Set) HashRouted(pkts []packet.Packet, slots []int32, dst []uint64) []uint64 {
	if len(slots) != len(pkts) {
		badSlots("tenant: HashRouted: %d slots for %d packets", len(slots), len(pkts))
	}
	dst = filtering.GrowSlice(dst, 2*len(pkts))
	for i, slot := range slots {
		var h1, h2 uint64
		if slot >= 0 {
			h1, h2 = s.hashers[slot].Pair(&pkts[i])
		}
		dst[2*i], dst[2*i+1] = h1, h2
	}
	return dst
}

// ProcessHashedInto is the fleet's ordered half: pkts in source order, each
// judged in the filter of its slot with the pair HashRouted made for it, an
// unrouted one (-1) passed and counted, the verdicts into out under the
// filtering.BatchFilter contract. A length mismatch or a slot outside
// [-1, Tenants()) is the caller's bug, not traffic: it panics before any
// tenant filter or counter is touched.
//
//bf:hotpath
func (s *Set) ProcessHashedInto(pkts []packet.Packet, slots []int32, pairs []uint64, out []filtering.Verdict) []filtering.Verdict {
	if len(slots) != len(pkts) {
		badSlots("tenant: ProcessHashedInto: %d slots for %d packets", len(slots), len(pkts))
	}
	if len(pairs) != 2*len(pkts) {
		badSlots("tenant: ProcessHashedInto: %d pair words for %d packets", len(pairs), len(pkts))
	}
	out = filtering.GrowVerdicts(out, len(pkts))
	s.mu.Lock()
	defer s.mu.Unlock()
	s.judge(pkts, slots, pairs, out)
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

// judge is the body of both batch entry points, under the lock. A first pass
// range-checks every slot. With a tenant of order ≥ 25 in the fleet, packet
// i+PrefetchAhead's lines are on their way while packet i is judged, as in
// the single filter.
//
//bf:hotpath
func (s *Set) judge(pkts []packet.Packet, slots []int32, pairs []uint64, out []filtering.Verdict) {
	for _, slot := range slots {
		if slot < -1 || int(slot) >= len(s.tenants) {
			badSlots("tenant: slot %d outside [-1, %d)", int(slot), len(s.tenants))
		}
	}
	ahead := len(pkts) // i+ahead is past the end: nothing to prefetch
	if s.prefetching {
		ahead = min(core.PrefetchAhead, len(pkts))
		for j := 0; j < ahead; j++ {
			s.prefetch(pkts, slots, pairs, j)
		}
	}
	for i, slot := range slots[:len(pkts)] {
		if j := i + ahead; j < len(pkts) {
			s.prefetch(pkts, slots, pairs, j)
		}
		if slot < 0 {
			out[i] = filtering.Pass
			s.countUnrouted(pkts[i].Dir)
			continue
		}
		out[i] = s.tenants[slot].filter.JudgeHashed(&pkts[i], pairs[2*i], pairs[2*i+1])
	}
}

//bf:hotpath
func (s *Set) prefetch(pkts []packet.Packet, slots []int32, pairs []uint64, j int) {
	if slot := slots[j]; slot >= 0 {
		s.tenants[slot].filter.PrefetchHashed(pkts[j].Dir, pairs[2*j], pairs[2*j+1])
	}
}

// AdvanceTo implements filtering.PacketFilter: every tenant's clock
// moves forward, so idle tenants expire their marks on schedule even
// when all traffic lands elsewhere.
func (s *Set) AdvanceTo(now time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, st := range s.tenants {
		st.filter.AdvanceTo(now)
	}
}

// MemoryBytes implements filtering.PacketFilter (sum over tenants) —
// the quantity the Budget constrains.
func (s *Set) MemoryBytes() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total uint64
	for _, st := range s.tenants {
		total += st.filter.MemoryBytes()
	}
	return total
}

// Counters implements filtering.PacketFilter: the cumulative totals
// across every tenant (including filters retired by resizes) plus the
// unrouted pass-through packets.
func (s *Set) Counters() filtering.Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := filtering.Counters{
		OutPackets: s.unroutedOut.Load(),
		InPackets:  s.unroutedIn.Load(),
		InPassed:   s.unroutedIn.Load(),
	}
	for _, st := range s.tenants {
		total.Add(st.baseline)
		total.Add(st.filter.Counters())
	}
	return total
}

// Utilization returns the mean current-vector fill fraction across
// tenants (each tenant's own capacity math uses its individual value;
// see TenantStats).
func (s *Set) Utilization() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var sum float64
	for _, st := range s.tenants {
		sum += st.filter.Utilization()
	}
	return sum / float64(len(s.tenants))
}

// RotateEvery returns the smallest rotation period across tenants — the
// cadence a background ticker must match so every tenant's rotations
// fire on schedule.
func (s *Set) RotateEvery() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	min := s.tenants[0].filter.RotateEvery()
	for _, st := range s.tenants[1:] {
		if dt := st.filter.RotateEvery(); dt < min {
			min = dt
		}
	}
	return min
}

// PunchHole opens an inbound hole (§5.1) in the tenant filter owning
// local's prefix; it is a no-op if no tenant covers the address.
func (s *Set) PunchHole(local packet.Addr, localPort uint16, remote packet.Addr, proto packet.Proto) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if slot := s.routes.Lookup(local); slot >= 0 {
		s.tenants[slot].filter.PunchHole(local, localPort, remote, proto)
	}
}

// Stats implements the core introspection surface with a cross-tenant
// aggregate, mirroring Sharded.Stats: additive fields are summed,
// fractional indicators averaged, the clock reports the most-advanced
// tenant and the earliest pending rotation. Configuration fields and the
// APD identity come from tenant 0 and are only meaningful for a
// homogeneous fleet; VectorUtilization is nil (tenants disagree on k).
// Use TenantStats for the per-tenant truth.
func (s *Set) Stats() core.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	agg := s.statLocked(0)
	agg.VectorUtilization = nil
	for i := 1; i < len(s.tenants); i++ {
		st := s.statLocked(i)
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
	}
	inv := 1 / float64(len(s.tenants))
	agg.Utilization *= inv
	agg.PenetrationProbability *= inv
	agg.APDDropProbability *= inv
	agg.Counters.OutPackets += s.unroutedOut.Load()
	agg.Counters.InPackets += s.unroutedIn.Load()
	agg.Counters.InPassed += s.unroutedIn.Load()
	return agg
}

// Stat is one tenant's introspection snapshot: identity plus the full
// core.Stats of its filter (cumulative counters include filters retired
// by resizes).
type Stat struct {
	ID     string
	Prefix packet.Prefix
	Stats  core.Stats
}

// statLocked returns tenant i's Stats with the resize baseline folded
// in. Callers hold the lock: reading a bare tenant races its dispatch.
func (s *Set) statLocked(i int) core.Stats {
	st := s.tenants[i]
	stats := st.filter.Stats()
	stats.Counters.Add(st.baseline)
	return stats
}

// TenantStats returns one snapshot per tenant, in configuration order —
// the per-tenant series /stats and /metrics expose.
func (s *Set) TenantStats() []Stat {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Stat, len(s.tenants))
	for i, st := range s.tenants {
		out[i] = Stat{ID: st.id, Prefix: st.prefix, Stats: s.statLocked(i)}
	}
	return out
}

// TenantIDs returns the tenant identifiers in configuration order.
func (s *Set) TenantIDs() []string {
	out := make([]string, len(s.tenants))
	for i, st := range s.tenants {
		out[i] = st.id
	}
	return out
}

// SameFleet reports whether the Set runs exactly the tenants described —
// the same ids, each owning the same canonical prefix; order and filter
// options are not compared — and otherwise returns an ErrConfig naming the
// first difference: in want's order, then a tenant of the Set that want
// lacks. It is the check a daemon makes after restoring a fleet from a
// snapshot, before believing its config file describes what it runs.
func (s *Set) SameFleet(want []Config) error {
	seen := make(map[string]struct{}, len(want))
	for _, tc := range want {
		if _, dup := seen[tc.ID]; dup {
			return fmt.Errorf("%w: duplicate tenant id %q", ErrConfig, tc.ID)
		}
		seen[tc.ID] = struct{}{}
		slot, ok := s.byID[tc.ID]
		if !ok {
			return fmt.Errorf("%w: tenant %q (%v) is configured but not in the running fleet", ErrConfig, tc.ID, tc.Prefix)
		}
		have := s.tenants[slot].prefix
		if packet.PrefixFrom(have.Base, have.Bits) != packet.PrefixFrom(tc.Prefix.Base, tc.Prefix.Bits) {
			return fmt.Errorf("%w: tenant %q is configured with prefix %v but runs with %v", ErrConfig, tc.ID, tc.Prefix, have)
		}
	}
	for _, st := range s.tenants {
		if _, ok := seen[st.id]; !ok {
			return fmt.Errorf("%w: tenant %q (%v) is in the running fleet but not configured", ErrConfig, st.id, st.prefix)
		}
	}
	return nil
}

// Lookup returns the tenant id owning addr, or "" if no prefix covers
// it. Routes and ids are fixed at construction, so it takes no lock.
func (s *Set) Lookup(addr packet.Addr) string {
	if slot := s.routes.Lookup(addr); slot >= 0 {
		return s.tenants[slot].id
	}
	return ""
}
