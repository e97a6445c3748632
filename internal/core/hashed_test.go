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
				var idxs []uint64
				var got, ref []filtering.Verdict
				for off := 0; off < len(pkts); off += batch {
					chunk := pkts[off:min(off+batch, len(pkts))]
					idxs = h.HashBatch(chunk, idxs)
					got = hashed.ProcessHashedInto(chunk, idxs, got)
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
// definition: the indexes of a packet are the hash family's over the bytes of
// its key — the partial tuple of its direction, or the full tuple in the
// outgoing orientation — whoever's goroutine computes them.
func TestHashBatchMatchesFamilyIndexes(t *testing.T) {
	pkts := hashedTrace(2000, 9)
	for _, policy := range []TuplePolicy{PartialTuple, FullTuple} {
		for _, m := range []int{1, 3, 8} {
			f := small(WithTuplePolicy(policy), WithHashes(m), WithSeed(77))
			h := f.Hasher()
			if h.Hashes() != m {
				t.Fatalf("Hashes() = %d, want %d", h.Hashes(), m)
			}
			fam := hashfam.MustNew(m, 77)
			got := h.HashBatch(pkts, nil)
			if len(got) != len(pkts)*m {
				t.Fatalf("policy %d m=%d: %d indexes for %d packets", policy, m, len(got), len(pkts))
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
				if want := fam.Indexes(nil, key); !reflect.DeepEqual(got[i*m:(i+1)*m], want) {
					t.Fatalf("policy %d m=%d packet %d (%v): indexes %x, the family's %x", policy, m, i, p, got[i*m:(i+1)*m], want)
				}
				// The per-packet entry points hash through the same code.
				if one := f.indexes(&p.Tuple, p.Dir); !reflect.DeepEqual(one, got[i*m:(i+1)*m]) {
					t.Fatalf("policy %d m=%d packet %d: Filter.indexes %x, HashBatch %x", policy, m, i, one, got[i*m:(i+1)*m])
				}
			}
			if dirs[packet.Outgoing] == 0 || dirs[packet.Incoming] == 0 {
				t.Fatalf("trace is one-way: %v", dirs)
			}
		}
	}
}

// TestProcessHashedIntoRefusesMismatchedIndexes: indexes that are not m per
// packet — a stale or truncated slice — are the caller's bug. The filter
// panics with a message before the clock, a bit or a counter moves, through
// Safe as well (which must not keep its lock).
func TestProcessHashedIntoRefusesMismatchedIndexes(t *testing.T) {
	pkts := hashedTrace(64, 4)
	for i := range pkts {
		pkts[i].Time += time.Minute // a judged batch would rotate
	}
	f := small()
	safe := NewSafe(f)
	f.Process(outPkt(time.Second, client, server, 4000, 80))
	before, stats := snapshotOf(t, f), f.Stats()
	good := f.Hasher().HashBatch(pkts, nil)
	for name, idxs := range map[string][]uint64{"short": good[:len(good)-1], "long": append(good[:len(good):len(good)], 1), "none": nil} {
		for flavor, judge := range map[string]func([]packet.Packet, []uint64, []filtering.Verdict) []filtering.Verdict{
			"filter": f.ProcessHashedInto, "safe": safe.ProcessHashedInto,
		} {
			func() {
				defer func() {
					if r := recover(); r == nil {
						t.Errorf("%s/%s: no panic", flavor, name)
					} else if msg := fmt.Sprint(r); !strings.Contains(msg, "ProcessHashedInto: idxs does not hold m indexes per packet") {
						t.Errorf("%s/%s: panic %q", flavor, name, msg)
					}
				}()
				judge(pkts, idxs, nil)
			}()
		}
		if !bytes.Equal(snapshotOf(t, f), before) || !reflect.DeepEqual(f.Stats(), stats) {
			t.Fatalf("%s: the refused batch left a trace: %+v, was %+v", name, f.Stats(), stats)
		}
	}
	if got := safe.ProcessHashedInto(pkts, good, nil); len(got) != len(pkts) || safe.Stats().Rotations == 0 {
		t.Errorf("after the refusals: %d verdicts, %d rotations", len(got), safe.Stats().Rotations)
	}
}

// TestHashBatchConcurrentWithJudge is the pump's shape in miniature: four
// goroutines hash batches of their own through one Hasher — a plain filter's
// and a Safe's — while a fifth judges what they publish, in order. Under
// -race this is what shows the hash half shares nothing with the ordered one.
func TestHashBatchConcurrentWithJudge(t *testing.T) {
	pkts := hashedTrace(8000, 31)
	const batch, hashers = 100, 4
	type hashedFilter interface {
		Hasher() *Hasher
		ProcessHashedInto(pkts []packet.Packet, idxs []uint64, out []filtering.Verdict) []filtering.Verdict
		Stats() Stats
	}
	mk := func() *Filter { return MustNew(WithOrder(12), WithSeed(5), WithRotateEvery(10*time.Millisecond)) }
	ref := mk()
	want := ref.ProcessBatchInto(pkts, nil)
	for name, f := range map[string]hashedFilter{"filter": mk(), "safe": NewSafe(mk())} {
		t.Run(name, func(t *testing.T) {
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
}

// TestHashedEntryPointsZeroAllocs: with buffers of the batch's size in hand,
// neither half allocates — a plain filter's or a Safe's.
func TestHashedEntryPointsZeroAllocs(t *testing.T) {
	pkts, _ := kernelTrace(512, 3)
	for i := range pkts {
		pkts[i].Time = 0
	}
	for _, m := range []int{3, 16} {
		f := small(WithHashes(m))
		safe := NewSafe(small(WithHashes(m)))
		h := f.Hasher()
		idxs := make([]uint64, 0, len(pkts)*m)
		out := make([]filtering.Verdict, len(pkts))
		if allocs := testing.AllocsPerRun(20, func() { idxs = h.HashBatch(pkts, idxs) }); allocs != 0 {
			t.Errorf("m=%d: HashBatch allocates %.1f times per batch", m, allocs)
		}
		if allocs := testing.AllocsPerRun(20, func() { out = f.ProcessHashedInto(pkts, idxs, out) }); allocs != 0 {
			t.Errorf("m=%d: ProcessHashedInto allocates %.1f times per batch", m, allocs)
		}
		if allocs := testing.AllocsPerRun(20, func() { out = safe.ProcessHashedInto(pkts, idxs, out) }); allocs != 0 {
			t.Errorf("m=%d: Safe.ProcessHashedInto allocates %.1f times per batch", m, allocs)
		}
	}
}
