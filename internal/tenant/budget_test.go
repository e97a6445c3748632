package tenant_test

import (
	"errors"
	"testing"
	"time"

	"bitmapfilter/internal/core"
	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/tenant"
)

// driveFlows opens n distinct outgoing flows from tenant prefix p at
// time base, spreading client addresses and ports so each flow marks
// fresh bits.
func driveFlows(s *tenant.Set, p packet.Prefix, n int, base time.Duration) {
	pkts := make([]packet.Packet, 0, n)
	for i := 0; i < n; i++ {
		client := p.Nth(uint64(i) % p.Size())
		pkts = append(pkts, packet.Packet{
			Time: base + time.Duration(i)*time.Microsecond,
			Tuple: packet.Tuple{
				Src: client, SrcPort: uint16(i/256)%60000 + 1024,
				Dst:     packet.AddrFrom4(198, 51, byte(i>>8), byte(i)),
				DstPort: 443, Proto: packet.TCP,
			},
			Dir: packet.Outgoing, Length: 100,
		})
	}
	s.ProcessBatch(pkts)
}

// TestRebalanceShrinksIdleGrowsHot is the budget acceptance test: with a
// deterministic traffic skew, the idle tenant's bitmap provably shrinks
// and the hot tenant's provably grows, resizes land only at rotation
// boundaries, and cumulative counters survive the swaps.
func TestRebalanceShrinksIdleGrowsHot(t *testing.T) {
	// Both tenants start at order 16 (64 Ki-bit vectors). The pool fits
	// roughly 1.5 of those footprints, so the planner must shift bytes
	// toward the hot tenant.
	mk := func(id string, b byte) tenant.Config {
		return tenant.Config{
			ID:     id,
			Prefix: packet.PrefixFrom(packet.AddrFrom4(10, b, 0, 0), 16),
			Options: []core.Option{
				core.WithOrder(16), core.WithSeed(uint64(b) + 1),
				core.WithVectors(4), core.WithRotateEvery(time.Second),
			},
		}
	}
	set, err := tenant.NewSet(tenant.SetConfig{
		Tenants: []tenant.Config{mk("hot", 1), mk("idle", 2)},
		Budget: &tenant.Budget{
			TotalBytes:        48 * 1024, // 1.5× one tenant's 32 KiB footprint
			TargetPenetration: 0.01,
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	before := set.TenantStats()
	if before[0].Stats.Order != 16 || before[1].Stats.Order != 16 {
		t.Fatalf("seed orders: %d, %d", before[0].Stats.Order, before[1].Stats.Order)
	}

	// 20k flows into "hot", nothing into "idle".
	driveFlows(set, before[0].Prefix, 20_000, 0)
	hotBefore := set.TenantStats()[0].Stats.Counters

	// Before any rotation has fired, Rebalance must not touch anything:
	// resizes are gated to rotation boundaries.
	if resized, err := set.Rebalance(500 * time.Millisecond); err != nil || resized != 0 {
		t.Fatalf("pre-rotation Rebalance = (%d, %v), want (0, nil)", resized, err)
	}

	// Cross a rotation boundary; now the skew is actionable.
	resized, err := set.Rebalance(1100 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if resized == 0 {
		t.Fatal("post-rotation Rebalance resized nothing")
	}
	after := set.TenantStats()
	if after[1].Stats.Order >= 16 {
		t.Errorf("idle tenant order %d, want < 16", after[1].Stats.Order)
	}
	if after[0].Stats.Order <= after[1].Stats.Order {
		t.Errorf("hot order %d not above idle order %d", after[0].Stats.Order, after[1].Stats.Order)
	}
	if set.MemoryBytes() > 48*1024+4*1024 {
		t.Errorf("fleet footprint %d exceeds budget", set.MemoryBytes())
	}
	// The swap must not lose the hot tenant's history.
	if after[0].Stats.Counters != hotBefore {
		t.Errorf("hot counters after resize %+v, want %+v", after[0].Stats.Counters, hotBefore)
	}

	// The rebuilt filters are complete when Rebalance returns: judging a
	// batch through them grows nothing (Set's own scratch is pooled, and
	// the race detector makes sync.Pool drop entries at random).
	batch := make([]packet.Packet, 512)
	for i := range batch {
		p := before[i%2].Prefix
		batch[i] = packet.Packet{Time: 1100 * time.Millisecond, Dir: packet.Outgoing, Length: 100,
			Tuple: packet.Tuple{Src: p.Nth(uint64(i)), SrcPort: 5000, Dst: packet.AddrFrom4(198, 51, 100, 7), DstPort: 443, Proto: packet.TCP}}
	}
	out := set.ProcessBatchInto(batch, nil)
	if allocs := testing.AllocsPerRun(50, func() { out = set.ProcessBatchInto(batch, out) }); allocs != 0 && !raceEnabled {
		t.Errorf("ProcessBatchInto on rebuilt tenants allocates %.1f times per batch", allocs)
	}

	// Determinism: an identical second set driven identically lands on
	// identical geometry.
	set2, err := tenant.NewSet(tenant.SetConfig{
		Tenants: []tenant.Config{mk("hot", 1), mk("idle", 2)},
		Budget: &tenant.Budget{
			TotalBytes:        48 * 1024,
			TargetPenetration: 0.01,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	driveFlows(set2, before[0].Prefix, 20_000, 0)
	if _, err := set2.Rebalance(1100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	again := set2.TenantStats()
	for i := range after {
		if after[i].Stats.Order != again[i].Stats.Order || after[i].Stats.Hashes != again[i].Stats.Hashes {
			t.Errorf("tenant %d geometry not deterministic: {%d,%d} vs {%d,%d}",
				i, after[i].Stats.Order, after[i].Stats.Hashes, again[i].Stats.Order, again[i].Stats.Hashes)
		}
	}

	// The reverse skew must move memory back: grow the now-hot "idle"
	// tenant. The rebalance has to land within T_e of the new traffic —
	// estimates come from the current vector, and marks older than the
	// expiry window have rotated away.
	driveFlows(set, after[1].Prefix, 20_000, 2*time.Second)
	if _, err := set.Rebalance(2050 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	final := set.TenantStats()
	if final[1].Stats.Order <= after[1].Stats.Order {
		t.Errorf("reheated tenant order %d did not grow from %d", final[1].Stats.Order, after[1].Stats.Order)
	}
}

// TestRebalanceExtremePressure proves a tenant is squeezed, never
// evicted: a budget far below any feasible plan still yields a working
// minimum-geometry filter rather than an error.
func TestRebalanceExtremePressure(t *testing.T) {
	set, err := tenant.NewSet(tenant.SetConfig{
		Tenants: []tenant.Config{{
			ID:     "squeezed",
			Prefix: packet.PrefixFrom(packet.AddrFrom4(10, 1, 0, 0), 16),
			Options: []core.Option{
				core.WithOrder(16), core.WithSeed(7),
				core.WithVectors(4), core.WithRotateEvery(time.Second),
			},
		}},
		// 1 KiB cannot hold even the minimum 4×2^10-bit geometry at the
		// target; the floor plan must kick in.
		Budget: &tenant.Budget{TotalBytes: 1024, TargetPenetration: 0.001},
	})
	if err != nil {
		t.Fatal(err)
	}
	driveFlows(set, packet.PrefixFrom(packet.AddrFrom4(10, 1, 0, 0), 16), 50_000, 0)
	if _, err := set.Rebalance(1100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	st := set.TenantStats()[0].Stats
	// The floor plan picks the largest order fitting the cap: 4 vectors
	// of 2^11 bits is exactly 1 KiB.
	if st.Order != 11 {
		t.Errorf("squeezed order = %d, want 11", st.Order)
	}
	if st.MemoryBytes > 1024 {
		t.Errorf("squeezed footprint %d exceeds the 1 KiB budget", st.MemoryBytes)
	}
	// Still a functioning filter.
	p := packet.Packet{
		Time:  1200 * time.Millisecond,
		Tuple: packet.Tuple{Src: packet.AddrFrom4(10, 1, 0, 1), SrcPort: 2000, Dst: packet.AddrFrom4(1, 1, 1, 1), DstPort: 80, Proto: packet.TCP},
		Dir:   packet.Outgoing, Length: 60,
	}
	set.Process(p)
	reply := p
	reply.Tuple = p.Tuple.Reverse()
	reply.Dir = packet.Incoming
	reply.Time += time.Millisecond
	if v := set.Process(reply); v != filtering.Pass {
		t.Errorf("reply after squeeze: %v", v)
	}
}

// TestRebalanceRequiresBudget pins the ErrNoBudget sentinel.
func TestRebalanceRequiresBudget(t *testing.T) {
	set := mustSet(t, tenant.SetConfig{Tenants: fleetSpec()})
	if _, err := set.Rebalance(time.Second); !errors.Is(err, tenant.ErrNoBudget) {
		t.Errorf("Rebalance without budget: %v", err)
	}
	if err := set.AttachBudget(&tenant.Budget{TotalBytes: 1 << 20, TargetPenetration: 0.01}); err != nil {
		t.Fatal(err)
	}
	if _, err := set.Rebalance(time.Second); err != nil {
		t.Errorf("Rebalance after AttachBudget: %v", err)
	}
	if err := set.AttachBudget(&tenant.Budget{TargetPenetration: 2}); err == nil {
		t.Error("AttachBudget accepted an invalid budget")
	}
}

// raceEnabled is set by race_test.go under -race, where sync.Pool sheds
// entries at random and allocation counts over pooled scratch mean nothing.
var raceEnabled bool
