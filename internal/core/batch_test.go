package core

import (
	"sync"
	"testing"
	"time"

	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/xrand"
)

// diffTrace builds a mixed trace with non-decreasing timestamps, repeated
// tuples (so lookups hit), occasional large gaps (so rotations and the APD
// fast-forward fire) and runs of identical timestamps (the batched clock
// path).
func diffTrace(n int, seed uint64) []packet.Packet {
	r := xrand.New(seed)
	pkts := make([]packet.Packet, 0, n)
	now := time.Duration(0)
	for len(pkts) < n {
		switch r.Intn(10) {
		case 0:
			now += time.Duration(r.Intn(int(3 * time.Second)))
		case 1:
			now += 25 * time.Second // beyond T_e: wholesale reset path
		}
		burst := 1 + r.Intn(6)
		for b := 0; b < burst && len(pkts) < n; b++ {
			tup := packet.Tuple{
				Src:     packet.AddrFrom4(10, 0, byte(r.Intn(4)), byte(r.Intn(16))),
				Dst:     packet.AddrFrom4(198, 51, 100, byte(r.Intn(8))),
				SrcPort: uint16(4000 + r.Intn(32)),
				DstPort: 80,
				Proto:   packet.TCP,
			}
			p := packet.Packet{Time: now, Tuple: tup, Dir: packet.Outgoing, Flags: packet.ACK, Length: 60 + r.Intn(1400)}
			if r.Bool(0.5) {
				p.Tuple = tup.Reverse()
				p.Dir = packet.Incoming
			}
			if r.Bool(0.1) {
				p.Flags = packet.SYN | packet.ACK
			}
			pkts = append(pkts, p)
		}
	}
	return pkts
}

func mustEqualStats(t *testing.T, a, b Stats, label string) {
	t.Helper()
	if a.Rotations != b.Rotations || a.CurrentIndex != b.CurrentIndex ||
		a.Marks != b.Marks || a.Counters != b.Counters ||
		a.APDSpared != b.APDSpared || a.Utilization != b.Utilization {
		t.Errorf("%s: stats diverged:\nseq:   %+v\nbatch: %+v", label, a, b)
	}
}

// TestProcessBatchMatchesSequential asserts the differential property the
// whole batched path rests on: chunked ProcessBatchInto produces
// byte-identical verdicts, counters, rotations and APD coin flips to
// per-packet Process.
func TestProcessBatchMatchesSequential(t *testing.T) {
	pkts := diffTrace(4000, 42)
	mkOpts := func() ([]Option, []Option) {
		// Separate but identically-seeded APD policies per filter.
		rp1, err := NewRatioPolicy(1, 3, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		rp2, err := NewRatioPolicy(1, 3, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		base := []Option{WithOrder(12), WithSeed(9)}
		return append(base, WithAPD(rp1)), append(base, WithAPD(rp2))
	}

	for _, chunk := range []int{1, 7, 64, 1000, len(pkts)} {
		o1, o2 := mkOpts()
		seq := MustNew(o1...)
		bat := MustNew(o2...)
		want := make([]filtering.Verdict, len(pkts))
		for i, p := range pkts {
			want[i] = seq.Process(p)
		}
		var got []filtering.Verdict
		for off := 0; off < len(pkts); off += chunk {
			end := min(off+chunk, len(pkts))
			got = append(got, bat.ProcessBatchInto(pkts[off:end], nil)...)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("chunk %d: verdict[%d] = %v, sequential %v (pkt %v)",
					chunk, i, got[i], want[i], pkts[i])
			}
		}
		mustEqualStats(t, seq.Stats(), bat.Stats(), "chunked")
	}
}

// TestShardedBatchMatchesSequential runs the same differential check
// through the sharded filter, whole and in the pump's two halves
// (single-goroutine here; the stress test below covers races).
func TestShardedBatchMatchesSequential(t *testing.T) {
	pkts := diffTrace(3000, 7)

	seqSh, err := NewSharded(4, WithOrder(12), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	batSh, err := NewSharded(4, WithOrder(12), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}

	rtSh, err := NewSharded(4, WithOrder(12), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	routed := &routedSharded{Sharded: rtSh}

	const chunk = 100
	for off := 0; off < len(pkts); off += chunk {
		end := min(off+chunk, len(pkts))
		gotSh := batSh.ProcessBatchInto(pkts[off:end], nil)
		gotRt := routed.ProcessBatchInto(pkts[off:end], nil)
		for i, p := range pkts[off:end] {
			want := seqSh.Process(p)
			if gotSh[i] != want {
				t.Fatalf("sharded verdict[%d] = %v, want %v", off+i, gotSh[i], want)
			}
			if gotRt[i] != want {
				t.Fatalf("sharded, routed halves: verdict[%d] = %v, want %v", off+i, gotRt[i], want)
			}
		}
	}
	if seqSh.Counters() != batSh.Counters() || seqSh.Counters() != rtSh.Counters() {
		t.Errorf("sharded counters diverged: %+v vs %+v and, routed, %+v", seqSh.Counters(), batSh.Counters(), rtSh.Counters())
	}
	if routed.rotations == 0 {
		t.Error("no rotation fell between a batch's hash and its judge")
	}
}

// routedSharded drives a Sharded through its two halves the way the pump
// does — ShardOf at decode, HashRouted on a worker, ProcessHashedInto on the
// commit step — and moves the clock to the batch's first packet in between, so a
// rotation falls between the hash and the judge whenever one is due: a
// pair holds across it.
type routedSharded struct {
	*Sharded
	slots     []int32
	pairs     []uint64
	rotations uint64 // batches with a rotation between hash and judge
}

func (r *routedSharded) ProcessBatchInto(pkts []packet.Packet, out []filtering.Verdict) []filtering.Verdict {
	r.slots = r.slots[:0]
	for i := range pkts {
		r.slots = append(r.slots, int32(r.ShardOf(pkts[i].Tuple, pkts[i].Dir)))
	}
	r.pairs = r.HashRouted(pkts, r.slots, r.pairs)
	if len(pkts) > 0 {
		before := r.Stats().Rotations
		r.AdvanceTo(pkts[0].Time)
		if r.Stats().Rotations != before {
			r.rotations++
		}
	}
	return r.ProcessHashedInto(pkts, r.slots, r.pairs, out)
}

// TestBatchDifferentialMillion is the acceptance differential at scale:
// a ≥1M-packet mixed trace (bursts, rotations, wholesale resets, APD coin
// flips) must produce byte-identical verdict streams through the batch and
// per-packet paths on every flavor, with the batch side recycling one
// verdict buffer the whole way.
func TestBatchDifferentialMillion(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-packet differential skipped in -short mode")
	}
	const n = 1_000_000
	pkts := diffTrace(n, 1234)

	mkAPD := func() Option {
		rp, err := NewRatioPolicy(1, 3, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return WithAPD(rp)
	}
	type flavor struct {
		name string
		mk   func() intoFilter
	}
	flavors := []flavor{
		{name: "filter", mk: func() intoFilter {
			return MustNew(WithOrder(16), WithSeed(77), mkAPD())
		}},
		{name: "sharded", mk: func() intoFilter {
			s, err := NewSharded(4, WithOrder(14), WithSeed(77))
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
		// APD rides the sharded flavor too: NewSharded clones the policy
		// per shard, and batch grouping preserves per-shard packet order,
		// so every per-shard APD coin flip matches the sequential run.
		{name: "sharded+apd", mk: func() intoFilter {
			s, err := NewSharded(4, WithOrder(14), WithSeed(77), mkAPD())
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
		// The same through the halves the pump calls, a rotation between
		// hash and judge whenever one is due.
		{name: "sharded+apd+routed", mk: func() intoFilter {
			s, err := NewSharded(4, WithOrder(14), WithSeed(77), mkAPD())
			if err != nil {
				t.Fatal(err)
			}
			return &routedSharded{Sharded: s}
		}},
	}
	for _, fl := range flavors {
		t.Run(fl.name, func(t *testing.T) {
			seq := fl.mk()
			bat := fl.mk()
			want := make([]filtering.Verdict, n)
			for i := range pkts {
				want[i] = seq.Process(pkts[i])
			}
			var out []filtering.Verdict
			mismatches := 0
			for off := 0; off < n; off += 613 { // deliberately unaligned chunk
				end := min(off+613, n)
				out = bat.ProcessBatchInto(pkts[off:end], out)
				for i := off; i < end; i++ {
					if out[i-off] != want[i] {
						mismatches++
						if mismatches <= 3 {
							t.Errorf("verdict[%d] = %v, want %v (pkt %+v)",
								i, out[i-off], want[i], pkts[i])
						}
					}
				}
			}
			if mismatches > 0 {
				t.Fatalf("%d/%d verdicts diverged", mismatches, n)
			}
			if seqC, batC := counters(seq), counters(bat); seqC != batC {
				t.Errorf("counters diverged: %+v vs %+v", seqC, batC)
			}
		})
	}
}

// counters fetches cumulative counters from any flavor.
func counters(f intoFilter) filtering.Counters {
	switch v := f.(type) {
	case *Filter:
		return v.Counters()
	case *Sharded:
		return v.Counters()
	case *routedSharded:
		return v.Counters()
	}
	panic("unknown flavor")
}

// TestConcurrentShardedAPDBatchInto hammers a sharded filter with an APD
// policy attached: concurrent ProcessBatchInto pumps (each recycling its
// own dirty buffer) race against Stats/APDSpared/ShardStats readers. Under
// -race this proves each per-shard policy clone is touched only under its
// shard's lock.
func TestConcurrentShardedAPDBatchInto(t *testing.T) {
	rp, err := NewRatioPolicy(1, 3, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewSharded(4, WithOrder(12), WithSeed(5), WithAPD(rp))
	if err != nil {
		t.Fatal(err)
	}
	pkts := diffTrace(512, 21)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]filtering.Verdict, 0, 64)
			for i := 0; i < 80; i++ {
				off := (g*41 + i*64) % (len(pkts) - 64)
				out = sh.ProcessBatchInto(pkts[off:off+64], out)
				if len(out) != 64 {
					t.Errorf("batchInto returned %d verdicts", len(out))
					return
				}
			}
		}(g)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			_ = sh.Stats()
			_ = sh.APDSpared()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			_ = sh.ShardStats()
			_ = sh.Utilization()
		}
	}()
	wg.Wait()
	// The caller's template policy is never wired into a shard — it must
	// come out of the stampede untouched.
	if got := rp.DropProbability(0); got != 0 {
		t.Errorf("template policy mutated: DropProbability = %v", got)
	}
	if sh.APDSpared() == 0 {
		t.Error("APDSpared = 0: policy clones saw no traffic")
	}
}

// TestConcurrentBatchStress hammers Sharded with concurrent
// ProcessBatchInto/Process/Stats/Counters/Reset. Run under -race it proves
// the batched paths take the same locks as the per-packet ones; without
// -race it is a cheap smoke test.
func TestConcurrentBatchStress(t *testing.T) {
	pkts := diffTrace(512, 99)
	sh, err := NewSharded(4, WithOrder(12), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	run := func(t *testing.T, batchInto func([]packet.Packet, []filtering.Verdict) []filtering.Verdict,
		single func(packet.Packet) filtering.Verdict, inspect, reset func()) {
		var wg sync.WaitGroup
		// Pumps: each goroutine owns one dirty buffer it recycles across
		// calls, the intended steady-state usage.
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				out := make([]filtering.Verdict, 0, 64)
				for i := 0; i < 50; i++ {
					off := (g*53 + i*64) % (len(pkts) - 64)
					out = batchInto(pkts[off:off+64], out)
					if len(out) != 64 {
						t.Errorf("batchInto returned %d verdicts", len(out))
						return
					}
				}
			}(g)
		}
		wg.Add(3)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				single(pkts[i%len(pkts)])
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				inspect()
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				reset()
			}
		}()
		wg.Wait()
	}

	t.Run("sharded", func(t *testing.T) {
		run(t, sh.ProcessBatchInto, sh.Process,
			func() { _ = sh.Counters(); _ = sh.MemoryBytes() }, sh.Reset)
	})
}
