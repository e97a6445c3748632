package tenant_test

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"bitmapfilter/internal/core"
	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/tenant"
)

// coinPolicy is a stateless fixed-probability APD policy: with 0 < p < 1
// every unmatched incoming packet draws from the filter's seeded coin
// RNG, so verdict equality across drivers proves the coin streams stay
// in sync packet for packet.
type coinPolicy struct{ p float64 }

func (coinPolicy) Observe(packet.Packet)                   {}
func (c coinPolicy) DropProbability(time.Duration) float64 { return c.p }
func (coinPolicy) Name() string                            { return "coin" }
func (c coinPolicy) ClonePolicy() core.DropPolicy          { return c }

// fleetSpec is the differential fixture: a heterogeneous fleet covering
// every flavor (plain, sharded, safe, APD) and an overlapping prefix
// pair so longest-prefix routing is load-bearing, not just exercised.
func fleetSpec() []tenant.Config {
	cfg := []tenant.Config{
		{ID: "t0", Prefix: packet.PrefixFrom(packet.AddrFrom4(10, 0, 0, 0), 16),
			Options: []core.Option{core.WithOrder(12), core.WithSeed(101)}},
		// t1 is a /17 carved out of t0's /16: addresses 10.0.128.0-10.0.255.255
		// must route here, not to t0.
		{ID: "t1", Prefix: packet.PrefixFrom(packet.AddrFrom4(10, 0, 128, 0), 17),
			Options: []core.Option{core.WithOrder(11), core.WithSeed(102)}},
		{ID: "t2", Prefix: packet.PrefixFrom(packet.AddrFrom4(10, 2, 0, 0), 16),
			Options: []core.Option{core.WithOrder(12), core.WithSeed(103), core.WithShards(4)}},
		{ID: "t3", Prefix: packet.PrefixFrom(packet.AddrFrom4(10, 3, 0, 0), 16),
			Options: []core.Option{core.WithOrder(11), core.WithSeed(104), core.WithConcurrencySafe()}},
		{ID: "t4", Prefix: packet.PrefixFrom(packet.AddrFrom4(10, 4, 0, 0), 16),
			Options: []core.Option{core.WithOrder(12), core.WithSeed(105), core.WithAPD(coinPolicy{p: 0.5})}},
		{ID: "t5", Prefix: packet.PrefixFrom(packet.AddrFrom4(10, 5, 0, 0), 16),
			Options: []core.Option{core.WithOrder(10), core.WithSeed(106), core.WithVectors(3), core.WithRotateEvery(2 * time.Second)}},
	}
	return cfg
}

// routeRef is the test's own longest-prefix match, written independently
// of packet.PrefixTable: scan all prefixes, keep the longest containing the
// client-side address.
func routeRef(cfgs []tenant.Config, pkt packet.Packet) int {
	addr := pkt.Tuple.Src
	if pkt.Dir == packet.Incoming {
		addr = pkt.Tuple.Dst
	}
	best, bestBits := -1, -1
	for i, c := range cfgs {
		if c.Prefix.Contains(addr) && int(c.Prefix.Bits) > bestBits {
			best, bestBits = i, int(c.Prefix.Bits)
		}
	}
	return best
}

// fleetTrace builds a deterministic mixed trace spread across the fleet's
// prefixes plus unrouted addresses: outgoing flow-openers, genuine
// replies, and random scans, with timestamps crossing several rotations.
func fleetTrace(n int, cfgs []tenant.Config) []packet.Packet {
	rng := uint64(0x2545f4914f6cdd1d)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	pkts := make([]packet.Packet, 0, n)
	for i := 0; i < n; i++ {
		t := time.Duration(i) * 50 * time.Microsecond
		r := next()
		var client packet.Addr
		// Tenant, unrouted and kind selectors draw from disjoint bit
		// ranges of r: sharing low bits would correlate them (r%6 fixes
		// r%3) and starve tenants of whole packet kinds.
		if (r>>9)%16 == 0 {
			// Unrouted: an address no tenant prefix covers.
			client = packet.AddrFrom4(192, 168, byte(r>>8), byte(r))
		} else {
			c := cfgs[(r>>20)%uint64(len(cfgs))]
			client = c.Prefix.Nth((r >> 28) % c.Prefix.Size())
		}
		remote := packet.AddrFrom4(198, 51, byte(r>>24), byte(r>>16))
		tup := packet.Tuple{
			Src: client, SrcPort: uint16(r>>32)%2048 + 1024,
			Dst: remote, DstPort: 443, Proto: packet.TCP,
		}
		switch r % 3 {
		case 0:
			pkts = append(pkts, packet.Packet{Time: t, Tuple: tup, Dir: packet.Outgoing, Length: 120})
		case 1:
			pkts = append(pkts, packet.Packet{Time: t, Tuple: tup.Reverse(), Dir: packet.Incoming, Length: 120})
		default:
			scan := packet.Tuple{
				Src: remote, SrcPort: 53,
				Dst: client, DstPort: uint16(r >> 40), Proto: packet.TCP,
			}
			pkts = append(pkts, packet.Packet{Time: t, Tuple: scan, Dir: packet.Incoming, Length: 60})
		}
	}
	return pkts
}

func mustSet(t *testing.T, cfg tenant.SetConfig) *tenant.Set {
	t.Helper()
	s, err := tenant.NewSet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSetDifferential is the tentpole proof: a Set over N heterogeneous
// tenants is verdict- and stats-identical to N independently driven
// filters over a 1M-packet mixed-prefix trace. Tenant t4 runs APD with
// p=0.5, so equality also pins the per-tenant coin-flip order; batch
// dispatch on the Set side vs per-packet on the reference side pins the
// grouping's order preservation.
func TestSetDifferential(t *testing.T) {
	cfgs := fleetSpec()
	set := mustSet(t, tenant.SetConfig{Tenants: cfgs})

	refs := make([]filtering.BatchFilter, len(cfgs))
	for i, c := range cfgs {
		f, err := core.Build(c.Options...)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = f
	}

	n := 1_000_000
	if testing.Short() {
		n = 100_000
	}
	pkts := fleetTrace(n, cfgs)

	want := make([]filtering.Verdict, len(pkts))
	var wantUnrouted uint64
	for i, p := range pkts {
		if slot := routeRef(cfgs, p); slot >= 0 {
			want[i] = refs[slot].Process(p)
		} else {
			want[i] = filtering.Pass
			wantUnrouted++
		}
	}

	var got, buf []filtering.Verdict
	for off := 0; off < len(pkts); off += 4096 {
		end := min(off+4096, len(pkts))
		buf = set.ProcessBatchInto(pkts[off:end], buf)
		got = append(got, buf...)
	}

	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("verdict %d: set %v, independent %v (pkt %+v)", i, got[i], want[i], pkts[i])
		}
	}
	if set.UnroutedPackets() != wantUnrouted {
		t.Errorf("UnroutedPackets = %d, want %d", set.UnroutedPackets(), wantUnrouted)
	}
	if wantUnrouted == 0 {
		t.Error("trace exercised no unrouted packets; test is vacuous")
	}

	stats := set.TenantStats()
	var total filtering.Counters
	for i, st := range stats {
		if st.ID != cfgs[i].ID || st.Prefix != cfgs[i].Prefix {
			t.Fatalf("tenant %d identity = %q %v", i, st.ID, st.Prefix)
		}
		ref := refs[i].Counters()
		if st.Stats.Counters != ref {
			t.Errorf("tenant %q counters = %+v, independent %+v", st.ID, st.Stats.Counters, ref)
		}
		if ref.InPackets == 0 || ref.OutPackets == 0 {
			t.Errorf("tenant %q starved: %+v (trace bug)", st.ID, ref)
		}
		total.OutPackets += ref.OutPackets
		total.InPackets += ref.InPackets
		total.InPassed += ref.InPassed
		total.InDropped += ref.InDropped
	}
	want4 := stats[4]
	if !want4.Stats.APDEnabled || want4.Stats.APDSpared == 0 {
		t.Errorf("tenant t4 APD not exercised: %+v", want4.Stats)
	}

	// Aggregate counters: tenant sums plus the unrouted split.
	gotTotal := set.Counters()
	var unroutedOut, unroutedIn uint64
	for _, p := range pkts {
		if routeRef(cfgs, p) < 0 {
			if p.Dir == packet.Outgoing {
				unroutedOut++
			} else {
				unroutedIn++
			}
		}
	}
	exp := total
	exp.OutPackets += unroutedOut
	exp.InPackets += unroutedIn
	exp.InPassed += unroutedIn
	if gotTotal != exp {
		t.Errorf("Set.Counters = %+v, want %+v", gotTotal, exp)
	}
}

// TestSetLookupAndPunchHole pins LPM specifics: longest match wins on
// the overlapping /16-/17 pair, and PunchHole lands in the owning tenant
// (no-op when unrouted).
func TestSetLookupAndPunchHole(t *testing.T) {
	cfgs := fleetSpec()
	set := mustSet(t, tenant.SetConfig{Tenants: cfgs})

	cases := []struct {
		addr packet.Addr
		want string
	}{
		{packet.AddrFrom4(10, 0, 1, 1), "t0"},
		{packet.AddrFrom4(10, 0, 127, 255), "t0"},
		{packet.AddrFrom4(10, 0, 128, 0), "t1"},
		{packet.AddrFrom4(10, 0, 255, 255), "t1"},
		{packet.AddrFrom4(10, 2, 9, 9), "t2"},
		{packet.AddrFrom4(9, 255, 255, 255), ""},
		{packet.AddrFrom4(10, 6, 0, 0), ""},
	}
	for _, c := range cases {
		if got := set.Lookup(c.addr); got != c.want {
			t.Errorf("Lookup(%v) = %q, want %q", c.addr, got, c.want)
		}
	}

	// A hole punched for a t1 address admits the inbound packet there.
	local := packet.AddrFrom4(10, 0, 200, 7)
	remote := packet.AddrFrom4(203, 0, 113, 5)
	set.PunchHole(local, 8080, remote, packet.TCP)
	in := packet.Packet{
		Time:  time.Millisecond,
		Tuple: packet.Tuple{Src: remote, SrcPort: 31337, Dst: local, DstPort: 8080, Proto: packet.TCP},
		Dir:   packet.Incoming, Length: 60,
	}
	if v := set.Process(in); v != filtering.Pass {
		t.Errorf("punched hole did not admit: %v", v)
	}
	if set.TenantStats()[1].Stats.Counters.InPassed == 0 {
		t.Error("hole admitted but not in tenant t1")
	}
	// Unrouted address: must not panic, packet still passes (unfiltered).
	set.PunchHole(packet.AddrFrom4(172, 16, 0, 1), 80, remote, packet.TCP)
}

// TestSetRejectsBadConfig pins the constructor's validation surface.
func TestSetRejectsBadConfig(t *testing.T) {
	base := packet.PrefixFrom(packet.AddrFrom4(10, 0, 0, 0), 16)
	cases := map[string]tenant.SetConfig{
		"no tenants": {},
		"empty id": {Tenants: []tenant.Config{
			{ID: "", Prefix: base}}},
		"duplicate id": {Tenants: []tenant.Config{
			{ID: "a", Prefix: base},
			{ID: "a", Prefix: packet.PrefixFrom(packet.AddrFrom4(10, 1, 0, 0), 16)}}},
		"duplicate prefix": {Tenants: []tenant.Config{
			{ID: "a", Prefix: base},
			{ID: "b", Prefix: base}}},
		"live option": {Tenants: []tenant.Config{
			{ID: "a", Prefix: base, Options: []core.Option{core.WithLiveClock(nil)}}}},
		"bad filter option": {Tenants: []tenant.Config{
			{ID: "a", Prefix: base, Options: []core.Option{core.WithOrder(99)}}}},
		"bad budget": {
			Tenants: []tenant.Config{{ID: "a", Prefix: base}},
			Budget:  &tenant.Budget{TotalBytes: 0, TargetPenetration: 0.01}},
	}
	for name, cfg := range cases {
		if _, err := tenant.NewSet(cfg); err == nil {
			t.Errorf("%s: NewSet accepted", name)
		}
	}
}

// TestSetSnapshotRoundTrip proves the fleet persists atomically: write →
// read → write is byte-identical, every tenant's bitmap state and
// identity survives, and corruption anywhere is detected.
func TestSetSnapshotRoundTrip(t *testing.T) {
	cfgs := fleetSpec()
	// Geometry, seeds and bitmap state all serialize; only policy
	// attachments need replaying, keyed by tenant id.
	extra := func(id string) []core.Option {
		if id == "t4" {
			return []core.Option{core.WithAPD(coinPolicy{p: 0.5})}
		}
		return nil
	}
	set := mustSet(t, tenant.SetConfig{Tenants: cfgs})
	pkts := fleetTrace(200_000, cfgs)
	set.ProcessBatch(pkts)

	var snap1 bytes.Buffer
	if err := set.WriteSnapshot(&snap1); err != nil {
		t.Fatal(err)
	}
	restored, err := tenant.ReadSnapshot(bytes.NewReader(snap1.Bytes()), extra)
	if err != nil {
		t.Fatal(err)
	}
	var snap2 bytes.Buffer
	if err := restored.WriteSnapshot(&snap2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap1.Bytes(), snap2.Bytes()) {
		t.Fatal("write→read→write is not byte-identical")
	}
	if restored.UnroutedPackets() != set.UnroutedPackets() {
		t.Errorf("unrouted counters: %d vs %d", restored.UnroutedPackets(), set.UnroutedPackets())
	}
	a, b := set.TenantStats(), restored.TenantStats()
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Prefix != b[i].Prefix || a[i].Stats.Counters != b[i].Stats.Counters ||
			a[i].Stats.Marks != b[i].Stats.Marks || a[i].Stats.Order != b[i].Stats.Order {
			t.Errorf("tenant %d diverged after restore:\n%+v\n%+v", i, a[i], b[i])
		}
	}

	// Two restores of the same snapshot must behave identically going
	// forward: restore is complete and deterministic. (The original set
	// is not a valid forward reference for APD tenants — the coin RNG
	// restarts from its seed on restore, by the same rule as the core
	// format.)
	restored2, err := tenant.ReadSnapshot(bytes.NewReader(snap1.Bytes()), extra)
	if err != nil {
		t.Fatal(err)
	}
	more := fleetTrace(50_000, cfgs)
	for i := range more {
		more[i].Time += pkts[len(pkts)-1].Time
	}
	v1 := restored.ProcessBatch(more)
	v2 := restored2.ProcessBatch(more)
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("verdict %d diverged between two restores", i)
		}
	}

	// Corruption anywhere — header, section header, id, inner snapshot,
	// inner CRC — must be detected, and truncation must never panic.
	data := snap1.Bytes()
	for _, off := range []int{2, 9, 24, 40, 80, 130, len(data) / 2, len(data) - 3} {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x40
		if _, err := tenant.ReadSnapshot(bytes.NewReader(bad), extra); err == nil {
			t.Errorf("corruption at offset %d undetected", off)
		}
	}
	for _, cut := range []int{0, 5, 19, 37, 100, len(data) - 1} {
		if _, err := tenant.ReadSnapshot(bytes.NewReader(data[:cut]), extra); err == nil {
			t.Errorf("truncation at %d undetected", cut)
		}
	}
	if _, err := tenant.ReadSnapshot(bytes.NewReader(append(append([]byte(nil), data...), 0)), extra); err == nil {
		t.Error("trailing byte undetected")
	}
}

// TestSetConcurrentDispatch races many batch pumps against rotations,
// stats scrapes and rebalances; run under -race this is the concurrency
// proof for the read-locked dispatch path. Every tenant uses a
// goroutine-safe flavor (safe or sharded), as the Set's contract
// requires for concurrent use.
func TestSetConcurrentDispatch(t *testing.T) {
	cfgs := []tenant.Config{
		{ID: "a", Prefix: packet.PrefixFrom(packet.AddrFrom4(10, 0, 0, 0), 16),
			Options: []core.Option{core.WithOrder(11), core.WithSeed(1), core.WithConcurrencySafe()}},
		{ID: "b", Prefix: packet.PrefixFrom(packet.AddrFrom4(10, 1, 0, 0), 16),
			Options: []core.Option{core.WithOrder(11), core.WithSeed(2), core.WithShards(2)}},
		{ID: "c", Prefix: packet.PrefixFrom(packet.AddrFrom4(10, 2, 0, 0), 16),
			Options: []core.Option{core.WithOrder(10), core.WithSeed(3), core.WithConcurrencySafe()}},
	}
	set := mustSet(t, tenant.SetConfig{
		Tenants: cfgs,
		Budget:  &tenant.Budget{TotalBytes: 1 << 20, TargetPenetration: 0.01},
	})
	pkts := fleetTrace(40_000, cfgs)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []filtering.Verdict
			for off := 0; off < len(pkts); off += 1024 {
				end := min(off+1024, len(pkts))
				buf = set.ProcessBatchInto(pkts[off:end], buf)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			set.TenantStats()
			set.Counters()
			set.Stats()
			set.AdvanceTo(time.Duration(i) * 100 * time.Millisecond)
			if i%10 == 9 {
				if _, err := set.Rebalance(time.Duration(i) * 100 * time.Millisecond); err != nil {
					t.Error(err)
				}
			}
		}
	}()
	wg.Wait()

	// All packets from all pumps must be accounted for.
	c := set.Counters()
	if got := c.OutPackets + c.InPackets; got != uint64(4*len(pkts)) {
		t.Errorf("counters lost packets: %d, want %d", got, 4*len(pkts))
	}
}

// TestSetEmptyBatchContract pins the BatchFilter empty-batch behavior.
func TestSetEmptyBatchContract(t *testing.T) {
	set := mustSet(t, tenant.SetConfig{Tenants: fleetSpec()})
	if got := set.ProcessBatch(nil); got != nil {
		t.Errorf("ProcessBatch(nil) = %v", got)
	}
	buf := make([]filtering.Verdict, 5, 9)
	if got := set.ProcessBatchInto(nil, buf); len(got) != 0 || cap(got) != cap(buf) {
		t.Errorf("ProcessBatchInto(nil, buf): len %d cap %d, want 0 %d", len(got), cap(got), cap(buf))
	}
}

// BenchmarkSetDispatch measures routing overhead vs a single filter and
// proves the steady-state dispatch allocates nothing.
func BenchmarkSetDispatch(b *testing.B) {
	const tenants = 64
	cfgs := make([]tenant.Config, tenants)
	for i := range cfgs {
		cfgs[i] = tenant.Config{
			ID:      "t" + string(rune('a'+i%26)) + string(rune('a'+i/26)),
			Prefix:  packet.PrefixFrom(packet.AddrFrom4(10, byte(i), 0, 0), 16),
			Options: []core.Option{core.WithOrder(14), core.WithSeed(uint64(i + 1))},
		}
	}
	set, err := tenant.NewSet(tenant.SetConfig{Tenants: cfgs})
	if err != nil {
		b.Fatal(err)
	}
	pkts := fleetTrace(4096, cfgs)
	out := make([]filtering.Verdict, len(pkts))
	set.ProcessBatchInto(pkts, out) // warm the scratch pool

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set.ProcessBatchInto(pkts, out)
	}
}
