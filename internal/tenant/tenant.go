// Package tenant is the multi-tenant data plane: one Set routes every
// packet to the per-subnet bitmap filter owning it, so an ISP edge
// protects thousands of client networks behind a single BatchFilter.
//
// The paper deploys one filter per client network (§3.2); Set scales the
// deployment out. Each tenant is a {prefix, filter} pair — a bare
// core.Filter built from an ordinary option bundle — and the filters are a
// core.Group, behind its one lock. Routing is by the longest matching
// prefix of the packet's client-side address (the source of an outgoing
// packet, the destination of an incoming one — the same §3.3 symmetry the
// filter keys on), so a flow's outgoing marks and its replies always meet
// in the same tenant filter. Packets no configured prefix covers are passed
// through unfiltered and counted.
//
// The group judges, locks and aggregates; the Set is its router. A batch is
// judged in the single filter's two halves: HashRouted hashes each packet
// with its tenant's hasher, on any goroutine, and ProcessHashedInto judges
// the batch in source order, each packet in its tenant's filter — which so
// sees what per-packet Process would feed it.
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

// tenantState is one tenant's identity and option bundle, fixed at
// construction; its filter is the Set's Group's member of the same index.
type tenantState struct {
	id     string
	prefix packet.Prefix
	// opts is the tenant's base option bundle, replayed (with geometry
	// overrides appended) when Rebalance resizes the filter.
	opts []core.Option
}

// Set is the multi-tenant data plane. It implements filtering.BatchFilter
// and the snapshot/introspection surface of the core flavors, so it can be
// judged through, scraped and checkpointed like a single filter.
//
// The tenant filters are a core.Group, slot i tenant i and −1 a packet no
// prefix covers. Every method that touches a tenant filter is the group's
// and takes its one mutex, so the bare tenants are safe under any number of
// callers: a scrape waits for at most the batch in flight.
type Set struct {
	*core.Group
	tenants []tenantState
	byID    map[string]int
	// routes maps a client-side address to its tenant's index: the same
	// longest-prefix table the pump classifies direction with. Fixed at
	// construction (Rebalance swaps filters, never prefixes).
	routes *packet.PrefixTable

	// planMu serializes the planner: Rebalance holds it throughout.
	planMu sync.Mutex
	budget *Budget //bf:guardedby planMu
	// planned is each tenant's rotation count when its geometry was last
	// (re)planned; Rebalance only reconsiders a tenant after its filter has
	// rotated past it.
	planned []uint64 //bf:guardedby planMu
}

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
	states := make([]tenantState, len(cfg.Tenants))
	filters := make([]*core.Filter, len(cfg.Tenants))
	for i, tc := range cfg.Tenants {
		f, err := core.New(tc.Options...)
		if err != nil {
			return nil, fmt.Errorf("tenant %q: %w", tc.ID, err)
		}
		states[i] = tenantState{id: tc.ID, prefix: tc.Prefix, opts: append([]core.Option(nil), tc.Options...)}
		filters[i] = f
	}
	return newSet(states, core.NewFleet(filters, nil, filtering.Counters{}), cfg.Budget)
}

// newSet validates identifiers and prefixes, compiles the routing table,
// and assembles the Set over the group of the tenants' filters. Shared by
// NewSet and the snapshot restore path.
func newSet(states []tenantState, group *core.Group, budget *Budget) (*Set, error) {
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
	return &Set{Group: group, tenants: states, byID: byID, routes: packet.NewPrefixTable(prefixes),
		budget: budget, planned: make([]uint64, len(states))}, nil
}

// Name implements filtering.PacketFilter.
func (s *Set) Name() string { return fmt.Sprintf("tenants(%d)", len(s.tenants)) }

// Process implements filtering.PacketFilter: the packet is handled
// entirely by the tenant its client address routes to; unrouted packets
// pass unfiltered.
//
//bf:hotpath
func (s *Set) Process(pkt packet.Packet) filtering.Verdict {
	return s.Group.Process(pkt, s.slot(&pkt))
}

// ProcessBatchInto is Group.ProcessBatchInto routed by Routes.
//
//bf:hotpath
func (s *Set) ProcessBatchInto(pkts []packet.Packet, out []filtering.Verdict) []filtering.Verdict {
	return s.Group.ProcessBatchInto(pkts, out, s.route)
}

// route writes the slot of each packet's client-side address into slots.
//
//bf:hotpath
func (s *Set) route(pkts []packet.Packet, slots []int32) {
	for i := range pkts {
		slots[i] = s.slot(&pkts[i])
	}
}

// slot is the slot of the packet's client-side address, the one tenant
// prefixes are defined over: the source of an outgoing packet, the
// destination of an incoming one (the same symmetry the filter keys on).
//
//bf:hotpath
func (s *Set) slot(pkt *packet.Packet) int32 {
	addr := pkt.Tuple.Dst
	if pkt.Dir == packet.Outgoing {
		addr = pkt.Tuple.Src
	}
	return s.routes.Lookup(addr)
}

// Routes returns the table the Set routes with: Lookup of a packet's
// client-side address (packet.PrefixTable.ClassifySlot's slot) is the slot
// HashRouted and ProcessHashedInto take for it. Immutable, like the
// prefixes.
func (s *Set) Routes() *packet.PrefixTable { return s.routes }

// PunchHole opens an inbound hole (§5.1) in the tenant filter owning
// local's prefix; it is a no-op if no tenant covers the address.
func (s *Set) PunchHole(local packet.Addr, localPort uint16, remote packet.Addr, proto packet.Proto) {
	if slot := s.routes.Lookup(local); slot >= 0 {
		s.Group.PunchHole(slot, local, localPort, remote, proto)
	}
}

// Stats is the group's cross-tenant aggregate (core.Group.Stats) with
// VectorUtilization nil: tenants may disagree on k, and a per-vector mean
// over tenants of different ages says nothing. Configuration fields but
// RotateEvery (the shortest), and the APD identity, come from tenant 0 and
// are only meaningful for a homogeneous fleet; use TenantStats for the
// per-tenant truth.
func (s *Set) Stats() core.Stats {
	st := s.Group.Stats()
	st.VectorUtilization = nil
	return st
}

// Stat is one tenant's introspection snapshot: identity plus the full
// core.Stats of its filter (cumulative counters include filters retired
// by resizes).
type Stat struct {
	ID     string
	Prefix packet.Prefix
	Stats  core.Stats
}

// TenantStats returns one snapshot per tenant, in configuration order —
// the per-tenant series /stats and /metrics expose.
func (s *Set) TenantStats() []Stat {
	per := s.MemberStats()
	out := make([]Stat, len(per))
	for i, st := range per {
		out[i] = Stat{ID: s.tenants[i].id, Prefix: s.tenants[i].prefix, Stats: st}
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
