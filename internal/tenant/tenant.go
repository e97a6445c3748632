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
// Batches are dispatched with one grouped sub-batch per touched tenant
// (stable counting sort, pooled scratch, zero steady-state allocations),
// exactly the pattern the sharded composite uses internally — the Set is
// to tenants what Sharded is to shards, except tenants are heterogeneous
// and externally meaningful.
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
// tenant is always a bare filter: the flavor options (WithShards,
// WithConcurrencySafe) are rejected with core.ErrConfig.
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
	budget *Budget

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
	}
	return &Set{tenants: states, byID: byID, routes: packet.NewPrefixTable(prefixes), budget: budget}, nil
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
		s.countUnrouted(pkt.Dir, 1)
		return filtering.Pass
	}
	return s.tenants[slot].filter.Process(pkt)
}

//bf:hotpath
func (s *Set) countUnrouted(dir packet.Direction, n uint64) {
	if dir == packet.Outgoing {
		s.unroutedOut.Add(n)
	} else {
		s.unroutedIn.Add(n)
	}
}

// setScratch holds the per-batch grouping buffers, pooled like the
// sharded composite's so a steady batch stream allocates nothing.
type setScratch struct {
	slotOf     []int32
	starts     []int
	next       []int
	grouped    []packet.Packet
	perm       []int32
	groupedOut []filtering.Verdict
}

var setScratchPool = sync.Pool{New: func() any { return new(setScratch) }}

// ProcessBatchInto routes every packet to its tenant, runs one grouped
// sub-batch per touched tenant, and writes the verdicts into out in input
// order under the filtering.BatchFilter contract; with the pooled scratch
// the steady state is allocation-free. Packets sharing a tenant keep their
// relative order, so each tenant filter sees the exact packet sequence (and
// draws the same APD coin flips) it would see per-packet. It looks every
// packet's slot up and is ProcessRoutedInto from there.
//
//bf:hotpath
func (s *Set) ProcessBatchInto(pkts []packet.Packet, out []filtering.Verdict) []filtering.Verdict {
	out = filtering.GrowVerdicts(out, len(pkts))
	if len(pkts) == 0 {
		return out
	}
	sc := setScratchPool.Get().(*setScratch)
	defer setScratchPool.Put(sc) //bf:allow hotpath pooled put must run even if a tenant filter panics, or the scratch leaks

	sc.slotOf = filtering.GrowSlice(sc.slotOf, len(pkts))
	for i := range pkts {
		sc.slotOf[i] = s.routes.Lookup(clientAddr(&pkts[i]))
	}
	s.regroup(sc, pkts, sc.slotOf, out)
	return out
}

// Routes returns the table the Set routes with: Lookup of a packet's
// client-side address (packet.PrefixTable.ClassifySlot's slot) is the slot
// ProcessRoutedInto takes for it. Immutable, like the prefixes.
func (s *Set) Routes() *packet.PrefixTable { return s.routes }

// ProcessRoutedInto is ProcessBatchInto for a caller that has already
// looked the packets up in Routes: slots[i] is the tenant slot of pkts[i],
// or -1 for a packet no prefix covers (passed unfiltered and counted, as
// ever). The daemon's classify step finds the slot anyway; handing it over
// saves the Set a second walk of the same table. A length mismatch or a
// slot outside [-1, Tenants()) is a bug in the caller, not traffic: it
// panics before any tenant filter or counter is touched.
//
//bf:hotpath
func (s *Set) ProcessRoutedInto(pkts []packet.Packet, slots []int32, out []filtering.Verdict) []filtering.Verdict {
	if len(slots) != len(pkts) {
		badSlots("tenant: ProcessRoutedInto: %d slots for %d packets", len(slots), len(pkts))
	}
	out = filtering.GrowVerdicts(out, len(pkts))
	if len(pkts) == 0 {
		return out
	}
	sc := setScratchPool.Get().(*setScratch)
	defer setScratchPool.Put(sc) //bf:allow hotpath pooled put must run even if a tenant filter panics, or the scratch leaks
	s.regroup(sc, pkts, slots, out)
	return out
}

// badSlots is the cold end of ProcessRoutedInto's contract: the caller
// broke it, and the message is all that is left to do. Kept out of line so
// the formatting stays off the hot path's books.
//
//go:noinline
func badSlots(format string, a, b int) {
	panic(fmt.Sprintf(format, a, b))
}

// regroup is the one body behind both entry points: it fills out (same
// length as pkts and slots) with one grouped sub-batch per touched tenant.
// Group g = slot+1, so group 0 collects the unrouted packets (slot -1),
// which pass unfiltered, and tenant t is group t+1.
//
//bf:hotpath
func (s *Set) regroup(sc *setScratch, pkts []packet.Packet, slots []int32, out []filtering.Verdict) {
	s.mu.Lock()
	defer s.mu.Unlock()

	groups := len(s.tenants) + 1 // + the unrouted group
	sc.starts = filtering.GrowSlice(sc.starts, groups+1)
	sc.next = filtering.GrowSlice(sc.next, groups)
	sc.grouped = filtering.GrowSlice(sc.grouped, len(pkts))
	sc.perm = filtering.GrowSlice(sc.perm, len(pkts))
	sc.groupedOut = filtering.GrowSlice(sc.groupedOut, len(pkts))

	// Stable counting sort by group. The count pass is also the range
	// check: it ends before anything below reads a slot as an index.
	clear(sc.starts)
	for _, slot := range slots {
		if uint32(slot+1) >= uint32(groups) {
			badSlots("tenant: slot %d outside [-1, %d)", int(slot), len(s.tenants))
		}
		sc.starts[slot+2]++
	}
	for i := 1; i < len(sc.starts); i++ {
		sc.starts[i] += sc.starts[i-1]
	}
	copy(sc.next, sc.starts[:groups])
	for i := range pkts {
		g := slots[i] + 1
		pos := sc.next[g]
		sc.next[g]++
		sc.grouped[pos] = pkts[i]
		sc.perm[pos] = int32(i) // grouped position -> original index
	}

	for t := range s.tenants {
		a, b := sc.starts[t+1], sc.starts[t+2]
		if a == b {
			continue
		}
		s.tenants[t].filter.ProcessBatchInto(sc.grouped[a:b], sc.groupedOut[a:b])
	}
	// The unrouted group: pass unfiltered, count by direction.
	if b := sc.starts[1]; b != 0 {
		var nOut, nIn uint64
		for pos := 0; pos < b; pos++ {
			sc.groupedOut[pos] = filtering.Pass
			if sc.grouped[pos].Dir == packet.Outgoing {
				nOut++
			} else {
				nIn++
			}
		}
		if nOut != 0 {
			s.unroutedOut.Add(nOut)
		}
		if nIn != 0 {
			s.unroutedIn.Add(nIn)
		}
	}
	for pos, i := range sc.perm {
		out[i] = sc.groupedOut[pos]
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
		addCounters(&total, st.baseline)
		addCounters(&total, st.filter.Counters())
	}
	return total
}

func addCounters(dst *filtering.Counters, c filtering.Counters) {
	dst.OutPackets += c.OutPackets
	dst.InPackets += c.InPackets
	dst.InPassed += c.InPassed
	dst.InDropped += c.InDropped
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
		addCounters(&agg.Counters, st.Counters)
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
	addCounters(&stats.Counters, st.baseline)
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
