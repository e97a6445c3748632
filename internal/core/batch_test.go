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
