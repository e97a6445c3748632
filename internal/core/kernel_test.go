package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"bitmapfilter/internal/bitvector"
	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/xrand"
)

// refProcess is the test-only reference the batch kernel is checked
// against: Algorithm 2 one packet at a time, every mark through
// SetAllVectors (no newest-vector shortcut, no chunking), the key through
// the byte-slice hash kernels. It drives a Filter built by New (partial
// tuples, MarkAllVectors) so that the clock, the APD policy, the coin and
// the counters are the very ones the kernel uses.
func refProcess(f *Filter, pkt packet.Packet) filtering.Verdict {
	f.AdvanceTo(pkt.Time)
	key := pkt.Tuple.IncomingKey()
	if pkt.Dir == packet.Outgoing {
		key = pkt.Tuple.OutgoingKey()
	}
	idxs := f.hasher.fam.Indexes(nil, key[:])
	apd := f.cfg.apd
	if pkt.Dir == packet.Outgoing {
		if apd == nil || !pkt.IsSignal() {
			bitvector.SetAllVectors(f.vectors, idxs)
			f.marks++
		}
		if apd != nil {
			apd.Observe(pkt)
		}
		f.counters.Count(pkt, filtering.Pass)
		return filtering.Pass
	}
	v := filtering.Pass
	if !f.vectors[f.idx].TestAll(idxs) {
		v = filtering.Drop
		if apd != nil && !f.rng.Bool(apd.DropProbability(pkt.Time)) {
			v = filtering.Pass
			f.apdSpared++
		}
	}
	if v == filtering.Pass && apd != nil {
		apd.Observe(pkt)
	}
	f.counters.Count(pkt, v)
	return v
}

// kernelTrace builds the trace the exactness test needs, for a filter with
// Δt = 10 ms: a small pool of flows (so most marks repeat and the shortcut
// is taken), strangers (so lookups miss and the APD coin is tossed), time
// steps that put a rotation every few dozen packets at no particular chunk
// offset, the occasional gap beyond k·Δt, and fresh flows whose reply
// follows at once. replies lists the index of each such reply that shares
// a 32-aligned chunk with the outgoing packet just before it.
func kernelTrace(n int, seed uint64) (pkts []packet.Packet, replies []int) {
	r := xrand.New(seed)
	now := time.Duration(0)
	add := func(tup packet.Tuple, dir packet.Direction) {
		flags := packet.ACK
		if r.Bool(0.1) {
			flags = packet.SYN | packet.ACK // a signal packet: unmarked under APD
		}
		pkts = append(pkts, packet.Packet{Time: now, Tuple: tup, Dir: dir, Flags: flags, Length: 60 + r.Intn(1400)})
	}
	for fresh := 0; len(pkts) < n; {
		now += time.Duration(r.Intn(400)) * time.Microsecond
		if r.Intn(500) == 0 {
			now += 50 * time.Millisecond // ≥ k·Δt: the wholesale-reset arm
		}
		tup := packet.Tuple{
			Src: packet.AddrFrom4(10, 0, byte(r.Intn(2)), byte(r.Intn(32))), Dst: server,
			SrcPort: uint16(4000 + r.Intn(8)), DstPort: 80, Proto: packet.TCP,
		}
		switch r.Intn(10) {
		case 0, 1, 2, 3:
			add(tup, packet.Outgoing)
		case 4, 5, 6:
			add(tup.Reverse(), packet.Incoming)
		case 7, 8:
			stranger := packet.Tuple{Src: packet.Addr(r.Uint32() | 1), Dst: client,
				SrcPort: uint16(1 + r.Intn(65535)), DstPort: uint16(1 + r.Intn(65535)), Proto: packet.UDP}
			add(stranger, packet.Incoming)
		default:
			fresh++
			tup.Src, tup.SrcPort, tup.Proto = packet.AddrFrom4(10, 9, byte(fresh>>8), byte(fresh)), 9000, packet.UDP
			add(tup, packet.Outgoing)
			add(tup.Reverse(), packet.Incoming)
			if i := len(pkts) - 1; i%chunkSize != 0 {
				replies = append(replies, i)
			}
		}
	}
	return pkts[:n], replies
}

// TestChunkedKernelMatchesReference is exactness: hashing a chunk ahead of
// the clock and skipping marks the newest vector already holds changes no
// verdict, no counter, no coin flip and no bit of any vector, at batch
// sizes on both sides of the chunk size, with rotations inside chunks and
// replies in the chunk of the packet that admits them. At order 25 the kernel
// also prefetches ahead, which must not show either.
func TestChunkedKernelMatchesReference(t *testing.T) {
	pkts, replies := kernelTrace(6000, 11)
	for _, geom := range []struct {
		order uint
		apd   bool
	}{{12, false}, {12, true}, {25, false}, {25, true}} {
		order, apd := geom.order, geom.apd
		mk := func() *Filter {
			opts := []Option{WithOrder(order), WithSeed(5), WithRotateEvery(10 * time.Millisecond)}
			if apd {
				p, err := NewBandwidthPolicy(20e6, 100*time.Millisecond)
				if err != nil {
					t.Fatal(err)
				}
				opts = append(opts, WithAPD(p))
			}
			return MustNew(opts...)
		}
		ref := mk()
		if ref.prefetching != (order >= prefetchMinOrder) {
			t.Fatalf("order %d: prefetching %v", order, ref.prefetching)
		}
		want := make([]filtering.Verdict, len(pkts))
		midChunkRotations := 0
		for i, p := range pkts {
			before := ref.Rotations()
			want[i] = refProcess(ref, p)
			if ref.Rotations() != before && i%chunkSize != 0 {
				midChunkRotations++
			}
		}
		if midChunkRotations < 10 || len(replies) < 10 {
			t.Fatalf("trace too tame: %d rotations inside a chunk, %d same-chunk replies", midChunkRotations, len(replies))
		}
		for _, i := range replies {
			if want[i] != filtering.Pass {
				t.Fatalf("apd=%v: reply %d to the packet before it was dropped", apd, i)
			}
		}
		if s := ref.Stats(); apd && (s.APDSpared == 0 || s.Counters.InDropped == 0) {
			t.Fatalf("APD coin never went both ways: %+v", s)
		}

		refSnapshot := snapshotOf(t, ref)
		for _, batch := range []int{1, 31, 32, 33, 64, 512} {
			f := mk()
			var out []filtering.Verdict
			for off := 0; off < len(pkts); off += batch {
				end := min(off+batch, len(pkts))
				out = f.ProcessBatchInto(pkts[off:end], out)
				for i, v := range out {
					if v != want[off+i] {
						t.Fatalf("order %d apd=%v batch %d: verdict[%d] = %v, reference %v (%v)", order, apd, batch, off+i, v, want[off+i], pkts[off+i])
					}
				}
			}
			label := fmt.Sprintf("order %d apd=%v batch %d", order, apd, batch)
			if !reflect.DeepEqual(f.Stats(), ref.Stats()) {
				t.Errorf("%s: stats diverged:\nkernel:    %+v\nreference: %+v", label, f.Stats(), ref.Stats())
			}
			for i, v := range f.vectors {
				if !v.Equal(ref.vectors[i]) { // every word and the running popcount
					t.Errorf("%s: vector %d differs from the reference (%v vs %v)", label, i, v, ref.vectors[i])
				}
			}
			if !bytes.Equal(snapshotOf(t, f), refSnapshot) {
				t.Errorf("%s: snapshot bytes differ from the reference's", label)
			}
		}
	}
}

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
				batch, _ := kernelTrace(1+r.Intn(100), r.Uint64())
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
	pkts, _ := kernelTrace(512, 3)
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
