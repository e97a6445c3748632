package bitmapfilter_test

import (
	"testing"

	"bitmapfilter"
)

// raceEnabled is set by race_test.go under -race, where sync.Pool drops
// entries at random and the pooled scratch of Sharded and TenantSet is
// rebuilt.
var raceEnabled bool

// TestHotpathZeroAlloc holds the //bf:hotpath entry points no other test
// covers to what the annotation promises: once the verdict buffer and the
// pooled scratch have grown to the batch, a call allocates nothing. Whether
// a value escapes is the compiler's decision, so it is checked on what the
// compiler built; the hotpath analyzer only rules out the syntax that always
// allocates.
func TestHotpathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop entries at random")
	}
	opts := []bitmapfilter.Option{bitmapfilter.WithOrder(14), bitmapfilter.WithSeed(1)}
	newFilter := func() *bitmapfilter.Filter {
		f, err := bitmapfilter.New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	filter, safe := newFilter(), bitmapfilter.NewSafe(newFilter())
	// Order 25 is past the prefetch gate: the judge prefetches ahead.
	prefetching, err := bitmapfilter.New(bitmapfilter.WithOrder(25), bitmapfilter.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := bitmapfilter.NewSharded(4, opts...)
	if err != nil {
		t.Fatal(err)
	}
	set, err := bitmapfilter.NewTenantSet(bitmapfilter.TenantSetConfig{Tenants: []bitmapfilter.TenantConfig{
		{ID: "a", Prefix: bitmapfilter.PrefixFrom(bitmapfilter.AddrFrom4(10, 0, 0, 0), 16), Options: opts},
		{ID: "b", Prefix: bitmapfilter.PrefixFrom(bitmapfilter.AddrFrom4(10, 1, 0, 0), 16), Options: opts},
	}})
	if err != nil {
		t.Fatal(err)
	}
	live, err := bitmapfilter.NewLive(newFilter())
	if err != nil {
		t.Fatal(err)
	}

	// Sessions of two tenants, their replies, a scan, and transit traffic
	// (10.2/16) no tenant owns.
	pkts := make([]bitmapfilter.Packet, 256)
	server := bitmapfilter.AddrFrom4(198, 51, 100, 7)
	for i := range pkts {
		client := bitmapfilter.AddrFrom4(10, byte(i%3), 0, byte(i))
		tup := bitmapfilter.Tuple{Src: client, SrcPort: uint16(40000 + i), Dst: server, DstPort: 443, Proto: bitmapfilter.TCP}
		pkts[i] = bitmapfilter.Packet{Tuple: tup, Dir: bitmapfilter.Outgoing, Length: 60}
		switch i % 4 {
		case 1: // the reply
			pkts[i].Tuple, pkts[i].Dir = tup.Reverse(), bitmapfilter.Incoming
		case 2: // a scanner
			pkts[i].Tuple, pkts[i].Dir = tup.Reverse(), bitmapfilter.Incoming
			pkts[i].Tuple.Src = bitmapfilter.AddrFrom4(203, 0, 113, byte(i))
		}
	}

	var out []bitmapfilter.Verdict
	each := func(process func(bitmapfilter.Packet) bitmapfilter.Verdict) func() {
		return func() {
			for _, p := range pkts {
				process(p)
			}
		}
	}
	cases := []struct {
		name string
		run  func()
	}{
		{"Filter.Process", each(filter.Process)},
		{"Safe.Process", each(safe.Process)},
		{"Sharded.Process", each(sharded.Process)},
		{"TenantSet.Process", each(set.Process)},
		{"LiveFilter.Process", each(live.Process)},
		{"LiveFilter.Observe", func() {
			for _, p := range pkts {
				live.Observe(p.Tuple, p.Dir, p.Flags, p.Length)
			}
		}},
		{"Filter.ProcessBatchInto/order=25", func() { out = prefetching.ProcessBatchInto(pkts, out) }},
		{"Safe.ProcessBatchInto", func() { out = safe.ProcessBatchInto(pkts, out) }},
		{"Sharded.ProcessBatchInto", func() { out = sharded.ProcessBatchInto(pkts, out) }},
		{"LiveFilter.ObserveBatchInto", func() { out = live.ObserveBatchInto(pkts, out) }},
		{"LiveFilter.ProcessBatchInto", func() { out = live.ProcessBatchInto(pkts, out) }},
	}
	for _, c := range cases {
		c.run() // warm-up: out and the pooled scratch grow to the batch once
		if allocs := testing.AllocsPerRun(20, c.run); allocs != 0 {
			t.Errorf("%s allocates %.1f times per %d packets", c.name, allocs, len(pkts))
		}
	}
}
