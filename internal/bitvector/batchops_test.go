package bitvector

import (
	"slices"
	"testing"

	"bitmapfilter/internal/xrand"
)

// TestTestAllMatchesScalar checks the multi-index lookup against the scalar
// Test loop it replaces, over groups with duplicate indexes and probes that
// share some of a set group's bits.
func TestTestAllMatchesScalar(t *testing.T) {
	r := xrand.New(11)
	v := MustNew(10)

	idxs := make([]uint64, 0, 8)
	for round := 0; round < 2000; round++ {
		idxs = idxs[:0]
		n := 1 + r.Intn(5)
		for i := 0; i < n; i++ {
			h := r.Uint64()
			if i > 0 && r.Bool(0.2) {
				h = idxs[r.Intn(i)] // duplicate inside the group
			}
			idxs = append(idxs, h)
		}
		for _, h := range idxs {
			v.Set(h)
		}
		if !v.TestAll(idxs) {
			t.Fatalf("round %d: TestAll(%v) false right after setting them", round, idxs)
		}

		probe := r.Uint64()
		if r.Bool(0.5) {
			probe = idxs[r.Intn(len(idxs))]
		}
		group := []uint64{probe, r.Uint64()}
		wantAll := v.Test(group[0]) && v.Test(group[1])
		if got := v.TestAll(group); got != wantAll {
			t.Fatalf("round %d: TestAll(%v) = %v, scalar %v", round, group, got, wantAll)
		}
	}
}

func TestTestAllEmpty(t *testing.T) {
	v := MustNew(6)
	if !v.TestAll(nil) {
		t.Error("TestAll(nil) = false, want vacuous true")
	}
}

// TestPrefetchChangesNothing: PrefetchPair is a hint. Over pairs whose
// indexes run above the mask (raw hash outputs, and past the vector's last
// word), a zero step that repeats one index, and no indexes at all it leaves
// every word and the running popcount as they were, at an order that fits
// the cache and one that does not.
func TestPrefetchChangesNothing(t *testing.T) {
	r := xrand.New(29)
	for _, order := range []uint{6, 12, 25} {
		v := MustNew(order)
		for i := 0; i < 1000; i++ {
			v.Set(r.Uint64())
		}
		before := &Vector{words: slices.Clone(v.words), order: v.order, mask: v.mask, count: v.count}
		last := v.Len() - 1
		for _, p := range []struct {
			h1, h2 uint64
			m      int
		}{
			{r.Uint64(), r.Uint64(), 0},
			{r.Uint64(), r.Uint64(), -1},
			{last, 1, 3},
			{^uint64(0), 1 << 40, 8},
			{r.Uint64(), r.Uint64() | 1, 64},
			{7, 0, 5},
		} {
			v.PrefetchPair(p.h1, p.h2, p.m)
			if !v.Equal(before) || v.PopCount() != before.PopCount() {
				t.Fatalf("order %d: PrefetchPair(%#x, %#x, %d) changed the vector: %v, was %v", order, p.h1, p.h2, p.m, v, before)
			}
		}
	}
}

// TestPairKernelsMatchIndexKernels: walking g_i = h1 + i·h2 in place is the
// index-group kernels over the m indexes written out — TestPair is TestAll,
// SetPairAllVectors is SetAllVectors, bit for bit and count for count.
func TestPairKernelsMatchIndexKernels(t *testing.T) {
	r := xrand.New(31)
	for _, order := range []uint{6, 10} {
		pair := []*Vector{MustNew(order), MustNew(order), MustNew(order)}
		idx := []*Vector{MustNew(order), MustNew(order), MustNew(order)}
		for trial := 0; trial < 3000; trial++ {
			h1, h2, m := r.Uint64(), r.Uint64()|1, int(r.Uint32()%9)
			idxs := make([]uint64, m)
			for i := range idxs {
				idxs[i] = h1 + uint64(i)*h2
			}
			v := int(r.Uint32() % 3)
			if got, want := pair[v].TestPair(h1, h2, m), idx[v].TestAll(idxs); got != want {
				t.Fatalf("order %d trial %d: TestPair %v, TestAll %v", order, trial, got, want)
			}
			if r.Uint32()%2 == 0 {
				SetPairAllVectors(pair[v:], h1, h2, m)
				SetAllVectors(idx[v:], idxs)
			}
			for i := range pair {
				if !pair[i].Equal(idx[i]) || pair[i].PopCount() != idx[i].PopCount() {
					t.Fatalf("order %d trial %d: vector %d diverged", order, trial, i)
				}
			}
		}
	}
}
