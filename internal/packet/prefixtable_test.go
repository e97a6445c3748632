package packet

import (
	"fmt"
	"testing"

	"bitmapfilter/internal/xrand"
)

// linearLookup is the oracle the table replaces: scan every prefix, the
// longest one containing a wins, the lowest index on ties.
func linearLookup(prefixes []Prefix, a Addr) int32 {
	best, bestBits := int32(-1), -1
	for i, p := range prefixes {
		if p.Contains(a) && int(p.Bits) > bestBits {
			best, bestBits = int32(i), int(p.Bits)
		}
	}
	return best
}

// linearInside is the first-match Contains scan the pump and replay.Run
// ran before the table.
func linearInside(prefixes []Prefix, a Addr) bool {
	for _, p := range prefixes {
		if p.Contains(a) {
			return true
		}
	}
	return false
}

// linearClassify is the direction switch built on it: source before
// destination.
func linearClassify(prefixes []Prefix, tu Tuple) (Direction, bool) {
	switch {
	case linearInside(prefixes, tu.Src):
		return Outgoing, true
	case linearInside(prefixes, tu.Dst):
		return Incoming, true
	}
	return 0, false
}

// checkTable compares the table with the oracle on the four boundary
// addresses of every prefix (with wraparound at the ends of the address
// space) and on the extra probes — Lookup per address, Classify and
// ClassifySlot per pair of them — and checks the documented node bound.
func checkTable(t testing.TB, prefixes []Prefix, probes []Addr) {
	t.Helper()
	table := NewPrefixTable(prefixes)
	if nodes, bound := len(table.nodes)/nodeEntries, 1+3*len(prefixes); nodes > bound {
		t.Fatalf("%d nodes for %d prefixes, bound %d", nodes, len(prefixes), bound)
	}
	for _, p := range prefixes {
		last := p.Base + Addr(p.Size()-1)
		probes = append(probes, p.Base-1, p.Base, last, last+1)
	}
	for _, a := range probes {
		if got, want := table.Lookup(a), linearLookup(prefixes, a); got != want {
			t.Fatalf("Lookup(%v) = %d, oracle %d; prefixes %v", a, got, want, prefixes)
		}
	}
	for i := 0; i+1 < len(probes); i += 2 {
		tu := Tuple{Src: probes[i], Dst: probes[i+1]}
		wantDir, wantOK := linearClassify(prefixes, tu)
		// The slot is the oracle's longest match of the client-side
		// address: what a fleet would route by.
		wantSlot := int32(-1)
		switch {
		case wantOK && wantDir == Outgoing:
			wantSlot = linearLookup(prefixes, tu.Src)
		case wantOK:
			wantSlot = linearLookup(prefixes, tu.Dst)
		}
		if dir, slot := table.ClassifySlot(tu); dir != wantDir || slot != wantSlot {
			t.Fatalf("ClassifySlot(%v) = %v,%d; oracle %v,%d; prefixes %v", tu, dir, slot, wantDir, wantSlot, prefixes)
		}
	}
}

func TestPrefixTableHandPicked(t *testing.T) {
	p := func(a, b, c, d byte, bits uint8) Prefix { return PrefixFrom(AddrFrom4(a, b, c, d), bits) }
	for name, prefixes := range map[string][]Prefix{
		"empty":          nil,
		"default route":  {p(0, 0, 0, 0, 0)},
		"one /8":         {p(10, 0, 0, 0, 8)},
		"host routes":    {p(10, 1, 2, 3, 32), p(10, 1, 2, 4, 32), p(255, 255, 255, 255, 32), p(0, 0, 0, 0, 32)},
		"/24 in a /16":   {p(10, 1, 0, 0, 16), p(10, 1, 7, 0, 24)},
		"/24 before /16": {p(10, 1, 7, 0, 24), p(10, 1, 0, 0, 16)},
		"nested chain":   {p(0, 0, 0, 0, 0), p(10, 0, 0, 0, 7), p(10, 0, 0, 0, 8), p(10, 128, 0, 0, 9), p(10, 128, 0, 0, 17), p(10, 128, 0, 128, 25), p(10, 128, 0, 129, 32)},
		"duplicates":     {p(10, 1, 0, 0, 16), p(10, 2, 0, 0, 16), p(10, 1, 0, 0, 16), p(10, 1, 0, 0, 16)},
		"octet edges":    {p(10, 0, 0, 0, 8), p(10, 0, 0, 0, 9), p(10, 0, 0, 0, 16), p(10, 0, 0, 0, 17), p(10, 0, 0, 0, 24), p(10, 0, 0, 0, 25)},
		"fleet":          fleetPrefixes(64),
	} {
		t.Run(name, func(t *testing.T) {
			checkTable(t, prefixes, []Addr{0, 1, ^Addr(0), AddrFrom4(10, 1, 7, 9), AddrFrom4(10, 128, 0, 129), AddrFrom4(11, 0, 0, 0)})
		})
	}
}

// TestPrefixTableCanonicalizes pins the one place the table is more
// forgiving than Contains: a prefix with host bits set or a length above
// 32 is read as PrefixFrom would store it.
func TestPrefixTableCanonicalizes(t *testing.T) {
	table := NewPrefixTable([]Prefix{{Base: AddrFrom4(10, 1, 2, 3), Bits: 16}, {Base: AddrFrom4(192, 0, 2, 1), Bits: 40}})
	for a, want := range map[Addr]int32{
		AddrFrom4(10, 1, 200, 200): 0,
		AddrFrom4(10, 2, 2, 3):     -1,
		AddrFrom4(192, 0, 2, 1):    1,
		AddrFrom4(192, 0, 2, 0):    -1,
	} {
		if got := table.Lookup(a); got != want {
			t.Errorf("Lookup(%v) = %d, want %d", a, got, want)
		}
	}
}

// randomPrefixSet draws n prefixes clustered under a few /8s so that
// overlaps, carve-outs and exact duplicates are common, always including
// the shapes the issue names when n allows.
func randomPrefixSet(r *xrand.Rand, n int) []Prefix {
	out := make([]Prefix, 0, n)
	for len(out) < n {
		base := Addr(10+r.Intn(3))<<24 | Addr(r.Uint32())&0x00ffffff
		switch r.Intn(8) {
		case 0:
			out = append(out, PrefixFrom(base, uint8(r.Intn(9)))) // /0../8
		case 1:
			out = append(out, PrefixFrom(base, 32))
		case 2:
			if len(out) > 0 {
				out = append(out, out[r.Intn(len(out))]) // duplicate
				continue
			}
			fallthrough
		case 3:
			// A /24 carved out of a /16, in either order.
			pair := []Prefix{PrefixFrom(base, 16), PrefixFrom(base, 24)}
			if r.Intn(2) == 0 {
				pair[0], pair[1] = pair[1], pair[0]
			}
			out = append(out, pair...)
		default:
			out = append(out, PrefixFrom(base, uint8(r.Intn(33))))
		}
	}
	return out[:n]
}

func TestPrefixTableDifferential(t *testing.T) {
	r := xrand.New(0x7ab1e)
	for round := 0; round < 300; round++ {
		prefixes := randomPrefixSet(r, 1+r.Intn(48))
		probes := make([]Addr, 0, 256)
		for i := 0; i < 128; i++ {
			// Half uniform, half aimed inside a random prefix.
			probes = append(probes, Addr(r.Uint32()))
			probes = append(probes, prefixes[r.Intn(len(prefixes))].Nth(r.Uint64()))
		}
		checkTable(t, prefixes, probes)
	}
}

// FuzzPrefixTable decodes bytes into a prefix set (5 bytes each: base,
// length) followed by probe addresses and compares every lookup with the
// linear oracle.
func FuzzPrefixTable(f *testing.F) {
	f.Add([]byte{2, 10, 1, 0, 0, 16, 10, 1, 7, 0, 24, 10, 1, 7, 9, 10, 1, 8, 0})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 255, 255, 255, 255})
	f.Add([]byte{3, 10, 1, 0, 0, 16, 10, 1, 0, 0, 16, 10, 1, 2, 3, 32, 10, 1, 2, 3})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]) % 64
		data = data[1:]
		var prefixes []Prefix
		for ; n > 0 && len(data) >= 5; n-- {
			prefixes = append(prefixes, PrefixFrom(AddrFrom4(data[0], data[1], data[2], data[3]), data[4]%33))
			data = data[5:]
		}
		var probes []Addr
		for ; len(data) >= 4; data = data[4:] {
			probes = append(probes, AddrFrom4(data[0], data[1], data[2], data[3]))
		}
		checkTable(t, prefixes, probes)
	})
}

// fleetPrefixes is the tenant_fleet shape: n /16s, 10.<i>.0.0/16 first,
// spilling into 11/8, 12/8, ... past 256.
func fleetPrefixes(n int) []Prefix {
	out := make([]Prefix, n)
	for i := range out {
		out[i] = PrefixFrom(AddrFrom4(byte(10+i>>8), byte(i), 0, 0), 16)
	}
	return out
}

var prefixSink int32

// BenchmarkPrefixTableLookup prices the table against the first-match
// scan it replaces at 1, 8, 64 and 4096 prefixes, on the mix the pump
// sees under a scan: the address is inside a uniformly chosen prefix half
// the time and outside every prefix (the scanner's source) the other
// half.
func BenchmarkPrefixTableLookup(b *testing.B) {
	for _, n := range []int{1, 8, 64, 4096} {
		prefixes := fleetPrefixes(n)
		r := xrand.New(uint64(n))
		addrs := make([]Addr, 4096)
		for i := range addrs {
			addrs[i] = Addr(r.Uint32()) | 0x80000000 // outside 10/8..25/8
			if i%2 == 0 {
				addrs[i] = prefixes[r.Intn(n)].Nth(r.Uint64())
			}
		}
		table := NewPrefixTable(prefixes)
		b.Run(fmt.Sprintf("table/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var sum int32
			for i := 0; i < b.N; i++ {
				sum += table.Lookup(addrs[i%len(addrs)])
			}
			prefixSink = sum
		})
		b.Run(fmt.Sprintf("linear/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var sum int32
			for i := 0; i < b.N; i++ {
				if linearInside(prefixes, addrs[i%len(addrs)]) {
					sum++
				}
			}
			prefixSink = sum
		})
	}
}
