package tenant_test

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
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

// clientSlots is what the daemon hands ProcessRoutedInto: Routes().Lookup of
// each packet's client-side address.
func clientSlots(set *tenant.Set, pkts []packet.Packet) []int32 {
	slots := make([]int32, len(pkts))
	for i, pkt := range pkts {
		addr := pkt.Tuple.Src
		if pkt.Dir == packet.Incoming {
			addr = pkt.Tuple.Dst
		}
		slots[i] = set.Routes().Lookup(addr)
	}
	return slots
}

// TestRoutedMatchesUnrouted: the two entry points are one body. Two
// identical fleets are fed the same trace cut into random batches (the
// empty batch among them), one through ProcessBatchInto and one through
// ProcessRoutedInto with the slots the table gives; verdicts, unrouted
// counts and every tenant's Stats stay equal.
func TestRoutedMatchesUnrouted(t *testing.T) {
	cfgs := fleetSpec()
	plain := mustSet(t, tenant.SetConfig{Tenants: cfgs})
	routed := mustSet(t, tenant.SetConfig{Tenants: cfgs})
	pkts := fleetTrace(60_000, cfgs)
	slots := clientSlots(routed, pkts)
	for i, pkt := range pkts {
		if want := routeRef(cfgs, pkt); int(slots[i]) != want {
			t.Fatalf("packet %d: table slot %d, reference %d", i, slots[i], want)
		}
	}

	rng := uint64(99)
	var want, got []filtering.Verdict
	for at, batches := 0, 0; at < len(pkts); batches++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		n := min(int(rng>>33)%700, len(pkts)-at) // 0 … 699: empty batches included
		if batches == 0 {
			n = 0
		}
		want = plain.ProcessBatchInto(pkts[at:at+n], want)
		got = routed.ProcessRoutedInto(pkts[at:at+n], slots[at:at+n], got)
		if len(got) != n || !reflect.DeepEqual(got, want) {
			t.Fatalf("batch at %d (%d packets): verdicts differ", at, n)
		}
		at += n
	}
	if plain.UnroutedPackets() == 0 || routed.UnroutedPackets() != plain.UnroutedPackets() {
		t.Errorf("unrouted: routed %d, plain %d (want equal and non-zero)", routed.UnroutedPackets(), plain.UnroutedPackets())
	}
	if got, want := routed.TenantStats(), plain.TenantStats(); !reflect.DeepEqual(got, want) {
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("tenant %s\n  routed: %+v\n  plain:  %+v", got[i].ID, got[i].Stats, want[i].Stats)
			}
		}
	}
}

// TestRoutedRejectsHostileSlots: a slot that is not the table's answer is a
// caller bug, and it is caught before the batch touches anything — the
// panic names the problem, no tenant filter and no counter has moved, and
// the Set judges the next batch as if nothing happened.
func TestRoutedRejectsHostileSlots(t *testing.T) {
	cfgs := fleetSpec()
	set := mustSet(t, tenant.SetConfig{Tenants: cfgs})
	pkts := fleetTrace(512, cfgs)
	slots := clientSlots(set, pkts)
	set.ProcessRoutedInto(pkts[:256], slots[:256], nil) // some state to disturb
	before, beforeUnrouted := set.TenantStats(), set.UnroutedPackets()

	hostile := func(name, wantMsg string, slots []int32) {
		t.Helper()
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, wantMsg) {
				t.Errorf("%s: panic %q, want one containing %q", name, msg, wantMsg)
			}
			if !reflect.DeepEqual(set.TenantStats(), before) || set.UnroutedPackets() != beforeUnrouted {
				t.Errorf("%s: the rejected batch moved fleet state", name)
			}
		}()
		set.ProcessRoutedInto(pkts[256:], slots, nil)
	}
	bad := func(at int, slot int32) []int32 {
		s := append([]int32(nil), slots[256:]...)
		s[at] = slot
		return s
	}
	hostile("slot -2", "slot -2 outside [-1, 6)", bad(255, -2))
	hostile("slot len(tenants)", "slot 6 outside [-1, 6)", bad(0, int32(len(cfgs))))
	hostile("short slice", "255 slots for 256 packets", slots[257:])

	ref := mustSet(t, tenant.SetConfig{Tenants: cfgs})
	ref.ProcessBatchInto(pkts[:256], nil)
	want := ref.ProcessBatchInto(pkts[256:], nil)
	if got := set.ProcessRoutedInto(pkts[256:], slots[256:], nil); !reflect.DeepEqual(got, want) {
		t.Error("verdicts after the rejected batches differ from a fleet that never saw them")
	}
}

// TestSameFleet: the restore-time comparison of a running fleet with a
// config — ids and canonical prefixes, order free.
func TestSameFleet(t *testing.T) {
	cfgs := fleetSpec()
	set := mustSet(t, tenant.SetConfig{Tenants: cfgs})
	edit := func(f func(c []tenant.Config) []tenant.Config) []tenant.Config {
		return f(append([]tenant.Config(nil), cfgs...))
	}
	for _, tc := range []struct {
		name, wantErr string
		cfg           []tenant.Config
	}{
		{"identical", "", cfgs},
		{"reordered, host bits set", "", edit(func(c []tenant.Config) []tenant.Config {
			c[0], c[5] = c[5], c[0]
			c[2].Prefix = packet.Prefix{Base: packet.AddrFrom4(10, 2, 9, 9), Bits: 16}
			return c
		})},
		{"added", `tenant "new" (10.9.0.0/16) is configured but not in the running fleet`, edit(func(c []tenant.Config) []tenant.Config {
			return append(c, tenant.Config{ID: "new", Prefix: packet.PrefixFrom(packet.AddrFrom4(10, 9, 0, 0), 16)})
		})},
		{"removed", `tenant "t3" (10.3.0.0/16) is in the running fleet but not configured`, edit(func(c []tenant.Config) []tenant.Config {
			return append(c[:3], c[4:]...)
		})},
		{"re-prefixed", `tenant "t1" is configured with prefix 10.0.128.0/18 but runs with 10.0.128.0/17`, edit(func(c []tenant.Config) []tenant.Config {
			c[1].Prefix = packet.PrefixFrom(packet.AddrFrom4(10, 0, 128, 0), 18)
			return c
		})},
		{"duplicate id standing in for a removed tenant", `duplicate tenant id "t0"`, edit(func(c []tenant.Config) []tenant.Config {
			c[3] = c[0]
			return c
		})},
	} {
		err := set.SameFleet(tc.cfg)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !errors.Is(err, tenant.ErrConfig) || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: err = %v, want ErrConfig containing %q", tc.name, err, tc.wantErr)
		}
	}
}
