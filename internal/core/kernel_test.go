package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/spec"
	"bitmapfilter/internal/xrand"
)

// TestVectorsStayNested is the invariant mark's shortcut rests on: whatever
// the interleaving of packets, rotations, clock jumps on both arms of
// AdvanceTo, hole punches, resets and restores, every vector is a subset of
// the next-older one (and restore accepts every state a filter can reach).
func TestVectorsStayNested(t *testing.T) {
	const dt = 10 * time.Millisecond
	for _, k := range []int{1, 2, 4} {
		f := MustNew(WithOrder(10), WithVectors(k), WithSeed(uint64(k)), WithRotateEvery(dt))
		r := xrand.New(uint64(100 + k))
		now := time.Duration(0)
		var out []filtering.Verdict
		marked, rotated := false, false // Reset zeroes the counters, so latch them
		for step := 0; step < 4000; step++ {
			tup := packet.Tuple{Src: packet.AddrFrom4(10, 0, 0, byte(r.Intn(64))), Dst: server,
				SrcPort: uint16(4000 + r.Intn(16)), DstPort: 80, Proto: packet.TCP}
			op := r.Intn(12)
			switch op {
			case 0, 1, 2:
				now += time.Duration(r.Intn(3000)) * time.Microsecond
				f.Process(packet.Packet{Time: now, Tuple: tup, Dir: packet.Outgoing, Flags: packet.ACK})
			case 3:
				f.Process(packet.Packet{Time: now, Tuple: tup.Reverse(), Dir: packet.Incoming, Flags: packet.ACK})
			case 4, 5:
				batch := spec.Trace(1+r.Intn(100), r.Uint64())
				for i := range batch {
					batch[i].Time += now
				}
				out = f.ProcessBatchInto(batch, out)
				now = batch[len(batch)-1].Time
			case 6:
				f.Rotate()
			case 7:
				now += time.Duration(r.Intn(k * int(dt))) // < k·Δt: rotate one by one
				f.AdvanceTo(now)
			case 8:
				now += time.Duration(k)*dt + time.Duration(r.Intn(int(3*dt))) // ≥ k·Δt: wholesale reset
				f.AdvanceTo(now)
			case 9:
				f.PunchHole(tup.Src, tup.SrcPort, tup.Dst, tup.Proto)
			case 10:
				if r.Intn(8) == 0 {
					f.Reset()
				}
			case 11:
				var buf bytes.Buffer
				if err := f.WriteSnapshot(&buf); err != nil {
					t.Fatal(err)
				}
				g, err := ReadSnapshot(&buf)
				if err != nil {
					t.Fatalf("k=%d step %d: restore refused a state the filter reached: %v", k, step, err)
				}
				f = g
			}
			if !f.nested() {
				t.Fatalf("k=%d step %d: vectors not nested after op %d: %v", k, step, op, f.Stats().VectorUtilization)
			}
			marked, rotated = marked || f.Marks() > 0, rotated || f.Rotations() > 0
		}
		if !marked || !rotated {
			t.Fatalf("k=%d: schedule never marked or rotated", k)
		}
	}
}

// TestProcessBatchIntoZeroAllocs pins that the index scratch is complete
// when New returns, whoever called New: no batch size, hash count or
// restore makes the kernel allocate.
func TestProcessBatchIntoZeroAllocs(t *testing.T) {
	pkts := spec.Trace(512, 3)
	for i := range pkts {
		pkts[i].Time = 0
	}
	filters := map[string]*Filter{
		"new":      small(),
		"new m=16": small(WithHashes(16)),
	}
	var buf bytes.Buffer
	if err := small(WithHashes(5)).WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	filters["restored m=5"] = restored
	for name, f := range filters {
		out := make([]filtering.Verdict, len(pkts))
		if allocs := testing.AllocsPerRun(20, func() { out = f.ProcessBatchInto(pkts, out) }); allocs != 0 {
			t.Errorf("%s: ProcessBatchInto allocates %.1f times per batch", name, allocs)
		}
	}
}

// clientMixBatches is client_mix_o28's shape without the harness:
// k=4, m=3, 512-packet batches of legitimate two-way traffic, 47 % of it
// outgoing, half of the outgoing keys repeated from earlier batches, every
// incoming packet a reply, one rotation per pass of 2^18 packets. At order
// 28 the bitmap is 128 MiB and every touch is a cache miss; the order-20
// twin is the same work on a bitmap that fits in L2. benchProcessBatchInto
// runs the batches through ProcessBatchInto, rotation included.
func clientMixBatches(batch, batches int) []packet.Packet {
	r := xrand.New(28)
	pkts := make([]packet.Packet, batch*batches)
	var flows []packet.Tuple
	earlier := 0 // flows first seen in an earlier batch
	for i := range pkts {
		if i%batch == 0 {
			earlier = len(flows)
		}
		p := packet.Packet{Time: time.Duration(i) * DefaultRotateEvery / time.Duration(len(pkts)), Flags: packet.ACK, Length: 600}
		switch {
		case earlier > 0 && !r.Bool(0.47):
			p.Dir = packet.Incoming
			p.Tuple = flows[r.Intn(earlier)].Reverse()
		case earlier > 0 && r.Bool(0.5):
			p.Dir = packet.Outgoing
			p.Tuple = flows[r.Intn(earlier)]
		default:
			p.Dir = packet.Outgoing
			p.Tuple = packet.Tuple{Src: packet.AddrFrom4(10, byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256))),
				Dst: packet.Addr(r.Uint32() | 1<<31), SrcPort: uint16(1024 + r.Intn(60000)), DstPort: 443, Proto: packet.TCP}
			flows = append(flows, p.Tuple)
		}
		pkts[i] = p
	}
	return pkts
}

func benchProcessBatchInto(b *testing.B, order uint) {
	const batch, batches = 512, 512
	pkts := clientMixBatches(batch, batches)
	f := MustNew(WithOrder(order))
	out := make([]filtering.Verdict, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chunk := pkts[i%batches*batch:][:batch]
		if i >= batches { // a later pass: the same traffic, one Δt on
			for j := range chunk {
				chunk[j].Time += DefaultRotateEvery
			}
		}
		out = f.ProcessBatchInto(chunk, out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/pkt")
}

func BenchmarkProcessBatchIntoOrder28(b *testing.B) { benchProcessBatchInto(b, 28) }
func BenchmarkProcessBatchIntoOrder20(b *testing.B) { benchProcessBatchInto(b, 20) }

// benchHalves prices the two halves of benchProcessBatchInto's work apart:
// the hash of a 512-packet batch, and the ordered half over pairs computed
// outside the timer — what is left on the pump's serial stage.
func benchHalves(b *testing.B, order uint, judge bool) {
	const batch, batches = 512, 512
	pkts := clientMixBatches(batch, batches)
	f := MustNew(WithOrder(order))
	h := f.Hasher()
	pairs := make([]uint64, 0, 2*batch)
	all := h.HashBatch(pkts, nil)
	out := make([]filtering.Verdict, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := i % batches * batch
		chunk := pkts[at:][:batch]
		if !judge {
			pairs = h.HashBatch(chunk, pairs)
			continue
		}
		if i >= batches { // a later pass: the same traffic, one Δt on
			for j := range chunk {
				chunk[j].Time += DefaultRotateEvery
			}
		}
		out = f.ProcessHashedInto(chunk, all[2*at:][:2*batch], out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/pkt")
}

func BenchmarkHashBatch(b *testing.B) { benchHalves(b, 20, false) }

// BenchmarkProcessHashedBatch is the ordered half on both sides of
// prefetchMinOrder: 20 and 24 fit a vector in the reference box's L2 and
// run without prefetching, 25 and 28 do not and run with it.
func BenchmarkProcessHashedBatch(b *testing.B) {
	for _, order := range []uint{20, 24, 25, 28} {
		b.Run(fmt.Sprintf("order=%d", order), func(b *testing.B) { benchHalves(b, order, true) })
	}
}
