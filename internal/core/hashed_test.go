package core

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/hashfam"
	"bitmapfilter/internal/packet"
)

// hashedTrace is kernelTrace (Δt = 10 ms: rotations inside chunks, gaps
// beyond k·Δt, same-chunk replies) with every 40th timestamp set back, so
// the ordered half also sees time regress.
func hashedTrace(n int, seed uint64) []packet.Packet {
	pkts, _ := kernelTrace(n, seed)
	for i := 40; i < len(pkts); i += 40 {
		pkts[i].Time -= min(pkts[i].Time, 3*time.Millisecond)
	}
	return pkts
}

func snapshotOf(t *testing.T, f *Filter) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestProcessHashedMatchesProcessBatch is what the split rests on: hashing a
// whole batch ahead (any goroutine's job) and judging it with
// ProcessHashedInto ends in the verdicts, counters, stats and snapshot bytes
// of ProcessBatchInto and of per-packet Process — across both tuple and both
// mark policies, APD on and off, and batch sizes on every side of the chunk.
// The order-25 rows run the prefetching side of judgeHashed (both of its
// vector choices), which only hints and so must change nothing.
func TestProcessHashedMatchesProcessBatch(t *testing.T) {
	pkts := hashedTrace(6000, 23)
	for _, tc := range []struct {
		name  string
		order uint
		opts  []Option
		apd   bool
	}{
		{"partial/all", 12, nil, false},
		{"partial/all/apd", 12, nil, true},
		{"full/all", 12, []Option{WithTuplePolicy(FullTuple)}, false},
		{"partial/current", 12, []Option{WithMarkPolicy(MarkCurrentOnly)}, false},
		{"full/current/apd", 12, []Option{WithTuplePolicy(FullTuple), WithMarkPolicy(MarkCurrentOnly)}, true},
		{"order=25/partial/all/apd", 25, nil, true},
		{"order=25/full/current", 25, []Option{WithTuplePolicy(FullTuple), WithMarkPolicy(MarkCurrentOnly)}, false},
	} {
		mk := func() *Filter {
			opts := append([]Option{WithOrder(tc.order), WithSeed(5), WithRotateEvery(10 * time.Millisecond)}, tc.opts...)
			if tc.apd {
				p, err := NewBandwidthPolicy(20e6, 100*time.Millisecond)
				if err != nil {
					t.Fatal(err)
				}
				opts = append(opts, WithAPD(p))
			}
			return MustNew(opts...)
		}
		seq := mk()
		if seq.prefetching != (tc.order >= prefetchMinOrder) {
			t.Fatalf("%s: prefetching %v at order %d", tc.name, seq.prefetching, tc.order)
		}
		want := make([]filtering.Verdict, len(pkts))
		for i, p := range pkts {
			want[i] = seq.Process(p)
		}
		if s := seq.Stats(); s.Rotations < 20 || s.Counters.InDropped == 0 || s.Counters.InPassed == 0 || (tc.apd && s.APDSpared == 0) {
			t.Fatalf("%s: trace too tame: %+v", tc.name, s)
		}
		for _, batch := range []int{1, 31, 32, 33, 512, 1000} {
			t.Run(fmt.Sprintf("%s/batch=%d", tc.name, batch), func(t *testing.T) {
				hashed, plain := mk(), mk()
				h := hashed.Hasher()
				var pairs []uint64
				var got, ref []filtering.Verdict
				for off := 0; off < len(pkts); off += batch {
					chunk := pkts[off:min(off+batch, len(pkts))]
					pairs = h.HashBatch(chunk, pairs)
					got = hashed.ProcessHashedInto(chunk, pairs, got)
					ref = plain.ProcessBatchInto(chunk, ref)
					for i := range chunk {
						if got[i] != want[off+i] || ref[i] != want[off+i] {
							t.Fatalf("verdict[%d]: hashed %v, batch %v, per-packet %v (%v)", off+i, got[i], ref[i], want[off+i], chunk[i])
						}
					}
				}
				for name, f := range map[string]*Filter{"hashed": hashed, "batch": plain} {
					if f.Counters() != seq.Counters() || !reflect.DeepEqual(f.Stats(), seq.Stats()) {
						t.Errorf("%s: stats diverged:\n  got  %+v\n  want %+v", name, f.Stats(), seq.Stats())
					}
					if !bytes.Equal(snapshotOf(t, f), snapshotOf(t, seq)) {
						t.Errorf("%s: snapshot bytes differ from the per-packet filter's", name)
					}
				}
			})
		}
	}
}

// TestHashBatchMatchesFamilyIndexes pins the pure half to the paper's
// definition: the pair of a packet is the hash family's base pair over the
// bytes of its key — the partial tuple of its direction, or the full tuple in
// the outgoing orientation — whoever's goroutine computes it, and the m
// indexes g_i = h1 + i·h2 the filter derives from it are the family's
// indexes. The pair is the seed's and the policy's alone: filters of any m
// hash a packet to the same pair.
func TestHashBatchMatchesFamilyIndexes(t *testing.T) {
	pkts := hashedTrace(2000, 9)
	for _, policy := range []TuplePolicy{PartialTuple, FullTuple} {
		var first []uint64 // the pairs of the first m
		for _, m := range []int{1, 3, 8} {
			f := small(WithTuplePolicy(policy), WithHashes(m), WithSeed(77))
			h := f.Hasher()
			fam := hashfam.MustNew(m, 77)
			got := h.HashBatch(pkts, nil)
			if len(got) != 2*len(pkts) {
				t.Fatalf("policy %d m=%d: %d words for %d packets", policy, m, len(got), len(pkts))
			}
			if first == nil {
				first = got
			} else if !reflect.DeepEqual(got, first) {
				t.Fatalf("policy %d: m=%d hashes to other pairs than m=1", policy, m)
			}
			dirs := map[packet.Direction]int{}
			for i, p := range pkts {
				var key []byte
				switch {
				case policy == FullTuple && p.Dir == packet.Incoming:
					k := p.Tuple.Reverse().FullKey()
					key = k[:]
				case policy == FullTuple:
					k := p.Tuple.FullKey()
					key = k[:]
				case p.Dir == packet.Outgoing:
					k := p.Tuple.OutgoingKey()
					key = k[:]
				default:
					k := p.Tuple.IncomingKey()
					key = k[:]
				}
				dirs[p.Dir]++
				h1, h2 := got[2*i], got[2*i+1]
				if w1, w2 := fam.Base(key); h1 != w1 || h2 != w2 {
					t.Fatalf("policy %d m=%d packet %d (%v): pair (%x, %x), the family's (%x, %x)", policy, m, i, p, h1, h2, w1, w2)
				}
				derived := make([]uint64, m)
				for j := range derived {
					derived[j] = h1 + uint64(j)*h2
				}
				if want := fam.Indexes(nil, key); !reflect.DeepEqual(derived, want) {
					t.Fatalf("policy %d m=%d packet %d: derived indexes %x, the family's %x", policy, m, i, derived, want)
				}
				// The per-packet entry points hash through the same code.
				if o1, o2 := h.Pair(&pkts[i]); o1 != h1 || o2 != h2 {
					t.Fatalf("policy %d m=%d packet %d: Hasher.Pair (%x, %x), HashBatch (%x, %x)", policy, m, i, o1, o2, h1, h2)
				}
			}
			if dirs[packet.Outgoing] == 0 || dirs[packet.Incoming] == 0 {
				t.Fatalf("trace is one-way: %v", dirs)
			}
		}
	}
}

// TestProcessHashedIntoRefusesMismatchedIndexes: pairs that are not two
// words per packet — a stale or truncated slice — are the caller's bug. The filter
// panics with a message before the clock, a bit or a counter moves.
func TestProcessHashedIntoRefusesMismatchedIndexes(t *testing.T) {
	pkts := hashedTrace(64, 4)
	for i := range pkts {
		pkts[i].Time += time.Minute // a judged batch would rotate
	}
	f := small()
	f.Process(outPkt(time.Second, client, server, 4000, 80))
	before, stats := snapshotOf(t, f), f.Stats()
	good := f.Hasher().HashBatch(pkts, nil)
	for name, pairs := range map[string][]uint64{"short": good[:len(good)-1], "long": append(good[:len(good):len(good)], 1), "none": nil} {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Errorf("%s: no panic", name)
				} else if msg := fmt.Sprint(r); !strings.Contains(msg, "ProcessHashedInto: pairs does not hold 2 words per packet") {
					t.Errorf("%s: panic %q", name, msg)
				}
			}()
			f.ProcessHashedInto(pkts, pairs, nil)
		}()
		if !bytes.Equal(snapshotOf(t, f), before) || !reflect.DeepEqual(f.Stats(), stats) {
			t.Fatalf("%s: the refused batch left a trace: %+v, was %+v", name, f.Stats(), stats)
		}
	}
	if got := f.ProcessHashedInto(pkts, good, nil); len(got) != len(pkts) || f.Stats().Rotations == 0 {
		t.Errorf("after the refusals: %d verdicts, %d rotations", len(got), f.Stats().Rotations)
	}
}

// TestHashBatchConcurrentWithJudge is the pump's shape in miniature: four
// goroutines hash batches of their own through one Hasher while a fifth
// judges what they publish, in order. Under -race this is what shows the
// hash half shares nothing with the ordered one.
func TestHashBatchConcurrentWithJudge(t *testing.T) {
	pkts := hashedTrace(8000, 31)
	const batch, hashers = 100, 4
	mk := func() *Filter { return MustNew(WithOrder(12), WithSeed(5), WithRotateEvery(10*time.Millisecond)) }
	ref := mk()
	want := ref.ProcessBatchInto(pkts, nil)
	t.Run("filter", func(t *testing.T) {
		f := mk()
		h := f.Hasher()
		batches := len(pkts) / batch
		ready := make([]chan []uint64, batches)
		for i := range ready {
			ready[i] = make(chan []uint64, 1)
		}
		var wg sync.WaitGroup
		for g := 0; g < hashers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := g; i < batches; i += hashers {
					ready[i] <- h.HashBatch(pkts[i*batch:(i+1)*batch], nil)
				}
			}()
		}
		var out []filtering.Verdict
		for i := 0; i < batches; i++ {
			chunk := pkts[i*batch : (i+1)*batch]
			out = f.ProcessHashedInto(chunk, <-ready[i], out)
			for j := range chunk {
				if out[j] != want[i*batch+j] {
					t.Fatalf("verdict[%d] = %v, want %v", i*batch+j, out[j], want[i*batch+j])
				}
			}
		}
		wg.Wait()
		if !reflect.DeepEqual(f.Stats(), ref.Stats()) {
			t.Errorf("stats diverged:\n  got  %+v\n  want %+v", f.Stats(), ref.Stats())
		}
	})
}

// TestHashedEntryPointsZeroAllocs: with buffers of the batch's size in hand,
// neither half allocates.
func TestHashedEntryPointsZeroAllocs(t *testing.T) {
	pkts, _ := kernelTrace(512, 3)
	for i := range pkts {
		pkts[i].Time = 0
	}
	for _, m := range []int{3, 16} {
		f := small(WithHashes(m))
		h := f.Hasher()
		pairs := make([]uint64, 0, 2*len(pkts))
		out := make([]filtering.Verdict, len(pkts))
		if allocs := testing.AllocsPerRun(20, func() { pairs = h.HashBatch(pkts, pairs) }); allocs != 0 {
			t.Errorf("m=%d: HashBatch allocates %.1f times per batch", m, allocs)
		}
		if allocs := testing.AllocsPerRun(20, func() { out = f.ProcessHashedInto(pkts, pairs, out) }); allocs != 0 {
			t.Errorf("m=%d: ProcessHashedInto allocates %.1f times per batch", m, allocs)
		}
	}
}
