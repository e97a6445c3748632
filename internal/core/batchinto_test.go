package core

import (
	"testing"

	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/packet"
)

// intoFilter is the slice of the BatchFilter contract these tests exercise.
type intoFilter interface {
	Process(pkt packet.Packet) filtering.Verdict
	ProcessBatchInto(pkts []packet.Packet, out []filtering.Verdict) []filtering.Verdict
}

// mkIntoFilters builds identically-seeded instances of every flavor, one
// per subtest, so verdict comparisons across call styles are exact.
func mkIntoFilters(t *testing.T) map[string]func() intoFilter {
	t.Helper()
	return map[string]func() intoFilter{
		"filter": func() intoFilter { return MustNew(WithOrder(12), WithSeed(21)) },
		"sharded": func() intoFilter {
			s, err := NewSharded(4, WithOrder(12), WithSeed(21))
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	}
}

// TestProcessBatchIntoContract pins the caller-buffer contract on every
// flavor: a dirty reused slice is fully overwritten, an aliased subslice of
// a larger array is reused in place, a too-short slice is grown without
// touching the original, and the verdicts are always identical to
// per-packet Process on a twin filter.
func TestProcessBatchIntoContract(t *testing.T) {
	pkts := diffTrace(500, 77)
	for name, mk := range mkIntoFilters(t) {
		t.Run(name, func(t *testing.T) {
			seq := mk()
			want := make([]filtering.Verdict, len(pkts))
			for i := range pkts {
				want[i] = seq.Process(pkts[i])
			}

			t.Run("dirty-reuse", func(t *testing.T) {
				f := mk()
				out := make([]filtering.Verdict, len(pkts))
				for i := range out {
					out[i] = filtering.Verdict(200) // poison
				}
				got := f.ProcessBatchInto(pkts, out)
				if len(got) != len(pkts) {
					t.Fatalf("len = %d, want %d", len(got), len(pkts))
				}
				if &got[0] != &out[0] {
					t.Error("backing array not reused despite sufficient cap")
				}
				for i := range got {
					if got[i] == filtering.Verdict(200) {
						t.Fatalf("verdict[%d] not overwritten", i)
					}
					if got[i] != want[i] {
						t.Fatalf("verdict[%d] = %v, want %v", i, got[i], want[i])
					}
				}
			})

			t.Run("aliased-subslice", func(t *testing.T) {
				f := mk()
				backing := make([]filtering.Verdict, len(pkts)+64)
				for i := range backing {
					backing[i] = filtering.Verdict(123)
				}
				sub := backing[32 : 32 : 32+len(pkts)]
				got := f.ProcessBatchInto(pkts, sub)
				if &got[0] != &backing[32] {
					t.Error("aliased subslice backing array not reused")
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("verdict[%d] = %v, want %v", i, got[i], want[i])
					}
				}
				// The contract writes only [0, len(pkts)) of the
				// subslice; surrounding elements are untouched.
				for i := 0; i < 32; i++ {
					if backing[i] != filtering.Verdict(123) {
						t.Fatalf("backing[%d] clobbered before the subslice", i)
					}
				}
				if backing[32+len(pkts)] != filtering.Verdict(123) {
					t.Error("backing clobbered after the subslice")
				}
			})

			t.Run("too-short", func(t *testing.T) {
				f := mk()
				short := make([]filtering.Verdict, 0, len(pkts)/3)
				full := short[:cap(short)]
				for i := range full {
					full[i] = filtering.Verdict(99)
				}
				got := f.ProcessBatchInto(pkts, short)
				if len(got) != len(pkts) {
					t.Fatalf("len = %d, want %d", len(got), len(pkts))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("verdict[%d] = %v, want %v", i, got[i], want[i])
					}
				}
				// Growth must not scribble on the caller's original
				// array.
				for i, v := range full {
					if v != filtering.Verdict(99) {
						t.Fatalf("original short buffer [%d] mutated", i)
					}
				}
			})

			t.Run("nil-out", func(t *testing.T) {
				f := mk()
				got := f.ProcessBatchInto(pkts, nil)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("verdict[%d] = %v, want %v", i, got[i], want[i])
					}
				}
			})

			t.Run("empty-batch", func(t *testing.T) {
				f := mk()
				buf := make([]filtering.Verdict, 0, 8)
				if got := f.ProcessBatchInto(nil, buf); len(got) != 0 {
					t.Errorf("empty batch returned %d verdicts", len(got))
				}
			})
		})
	}
}

// TestProcessBatchIntoChunkedReuse is the steady-state shape drivers use:
// one verdict buffer recycled across many variable-size chunks, checked
// against a sequential twin.
func TestProcessBatchIntoChunkedReuse(t *testing.T) {
	pkts := diffTrace(3000, 5)
	for name, mk := range mkIntoFilters(t) {
		t.Run(name, func(t *testing.T) {
			into := mk()
			seq := mk()
			var out []filtering.Verdict
			chunks := []int{1, 300, 7, 512, 64, 2, 100}
			off := 0
			for i := 0; off < len(pkts); i++ {
				end := min(off+chunks[i%len(chunks)], len(pkts))
				out = into.ProcessBatchInto(pkts[off:end], out)
				for j := off; j < end; j++ {
					if want := seq.Process(pkts[j]); out[j-off] != want {
						t.Fatalf("verdict[%d] = %v, want %v", j, out[j-off], want)
					}
				}
				off = end
			}
		})
	}
}

// FuzzProcessBatchInto fuzzes the contract: arbitrary chunk splits and
// buffer capacities must reproduce the sequential verdict stream exactly,
// hashed by the filter chunk by chunk or by the caller a batch ahead.
func FuzzProcessBatchInto(f *testing.F) {
	f.Add(uint64(1), uint(16), uint(0))
	f.Add(uint64(42), uint(1), uint(3))
	f.Add(uint64(9), uint(255), uint(1000))
	f.Fuzz(func(t *testing.T, seed uint64, chunk uint, capHint uint) {
		pkts := diffTrace(600, seed)
		chunkSize := int(chunk%256) + 1
		seq := MustNew(WithOrder(10), WithSeed(seed))
		bat := MustNew(WithOrder(10), WithSeed(seed))
		hashed := MustNew(WithOrder(10), WithSeed(seed))

		want := make([]filtering.Verdict, len(pkts))
		for i := range pkts {
			want[i] = seq.Process(pkts[i])
		}

		out := make([]filtering.Verdict, 0, capHint%1024)
		hout := make([]filtering.Verdict, 0, capHint%1024)
		pairs := make([]uint64, 0, capHint%64)
		for off := 0; off < len(pkts); off += chunkSize {
			end := min(off+chunkSize, len(pkts))
			out = bat.ProcessBatchInto(pkts[off:end], out)
			pairs = hashed.Hasher().HashBatch(pkts[off:end], pairs)
			hout = hashed.ProcessHashedInto(pkts[off:end], pairs, hout)
			for i := off; i < end; i++ {
				if out[i-off] != want[i] || hout[i-off] != want[i] {
					t.Fatalf("seed %d chunk %d: verdict[%d] = %v, hashed ahead %v, want %v",
						seed, chunkSize, i, out[i-off], hout[i-off], want[i])
				}
			}
		}
		mustEqualStats(t, seq.Stats(), bat.Stats(), "fuzz")
		mustEqualStats(t, seq.Stats(), hashed.Stats(), "fuzz, hashed ahead")
	})
}
