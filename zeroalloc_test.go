package bitmapfilter_test

import (
	"testing"

	"bitmapfilter"
)

// perPacket hides a filter's batch method, so AsBatch must wrap it in the
// per-packet fallback.
type perPacket struct{ bitmapfilter.PacketFilter }

// TestHotpathZeroAlloc holds the //bf:hotpath entry points no other test
// covers to what the annotation promises: once the verdict and pair buffers
// have grown to the batch, a call allocates nothing — the per-packet Process
// of each flavor, ProcessBatchInto of the four batch bodies (Filter,
// Sharded, TenantSet and AsBatch's fallback), and the two halves of a routed
// filter — a sharded filter's and a fleet's — as a daemon's workers and lane
// run them: HashRouted and the in-order ProcessHashedInto, with and without
// prefetching. Whether
// a value escapes is the compiler's decision, so it is checked on what the
// compiler built; the hotpath analyzer only rules out the syntax that always
// allocates.
func TestHotpathZeroAlloc(t *testing.T) {
	opts := []bitmapfilter.Option{bitmapfilter.WithOrder(14), bitmapfilter.WithSeed(1)}
	newFilter := func() *bitmapfilter.Filter {
		f, err := bitmapfilter.New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	filter := newFilter()
	// Order 25 is past the prefetch gate: the judge prefetches ahead.
	prefetching, err := bitmapfilter.New(bitmapfilter.WithOrder(25), bitmapfilter.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := bitmapfilter.NewSharded(4, opts...)
	if err != nil {
		t.Fatal(err)
	}
	// Shards of order 25: the sharded judge prefetches ahead.
	bigSharded, err := bitmapfilter.NewSharded(2, bitmapfilter.WithOrder(25), bitmapfilter.WithVectors(1), bitmapfilter.WithSeed(1))
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
	// One tenant of order 25: the fleet's judge prefetches ahead.
	bigSet, err := bitmapfilter.NewTenantSet(bitmapfilter.TenantSetConfig{Tenants: []bitmapfilter.TenantConfig{
		{ID: "big", Prefix: bitmapfilter.PrefixFrom(bitmapfilter.AddrFrom4(10, 0, 0, 0), 14),
			Options: []bitmapfilter.Option{bitmapfilter.WithOrder(25), bitmapfilter.WithSeed(1)}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	fallback := bitmapfilter.AsBatch(perPacket{newFilter()})

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

	// The slots a daemon's classify step finds, for each fleet.
	slotsOf := func(set *bitmapfilter.TenantSet) []int32 {
		slots := make([]int32, len(pkts))
		for i, p := range pkts {
			client := p.Tuple.Src
			if p.Dir == bitmapfilter.Incoming {
				client = p.Tuple.Dst
			}
			slots[i] = set.Routes().Lookup(client)
		}
		return slots
	}
	slots, bigSlots := slotsOf(set), slotsOf(bigSet)
	// The slots a daemon's workers find for a sharded filter.
	shardsOf := func(s *bitmapfilter.Sharded) []int32 {
		slots := make([]int32, len(pkts))
		for i, p := range pkts {
			slots[i] = int32(s.ShardOf(p.Tuple, p.Dir))
		}
		return slots
	}
	shardSlots, bigShardSlots := shardsOf(sharded), shardsOf(bigSharded)
	var pairs []uint64

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
		{"Sharded.Process", each(sharded.Process)},
		{"TenantSet.Process", each(set.Process)},
		{"Filter.ProcessBatchInto/order=25", func() { out = prefetching.ProcessBatchInto(pkts, out) }},
		{"Sharded.ProcessBatchInto", func() { out = sharded.ProcessBatchInto(pkts, out) }},
		{"TenantSet.ProcessBatchInto", func() { out = set.ProcessBatchInto(pkts, out) }},
		{"Sharded.HashRouted", func() { pairs = sharded.HashRouted(pkts, shardSlots, pairs) }},
		{"Sharded.ProcessHashedInto", func() {
			out = sharded.ProcessHashedInto(pkts, shardSlots, sharded.HashRouted(pkts, shardSlots, pairs), out)
		}},
		{"Sharded.ProcessHashedInto/order=25", func() {
			out = bigSharded.ProcessHashedInto(pkts, bigShardSlots, bigSharded.HashRouted(pkts, bigShardSlots, pairs), out)
		}},
		{"TenantSet.HashRouted", func() { pairs = set.HashRouted(pkts, slots, pairs) }},
		{"TenantSet.ProcessHashedInto", func() { out = set.ProcessHashedInto(pkts, slots, set.HashRouted(pkts, slots, pairs), out) }},
		{"TenantSet.ProcessHashedInto/order=25", func() {
			out = bigSet.ProcessHashedInto(pkts, bigSlots, bigSet.HashRouted(pkts, bigSlots, pairs), out)
		}},
		{"AsBatch.ProcessBatchInto", func() { out = fallback.ProcessBatchInto(pkts, out) }},
	}
	for _, c := range cases {
		c.run() // warm-up: out and pairs grow to the batch once
		if allocs := testing.AllocsPerRun(20, c.run); allocs != 0 {
			t.Errorf("%s allocates %.1f times per %d packets", c.name, allocs, len(pkts))
		}
	}
}
