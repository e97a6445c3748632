package bitvector

import (
	"slices"
	"testing"

	"bitmapfilter/internal/xrand"
)

// TestSetAllTestAllMatchScalar checks the multi-index fast path against the
// scalar Set/Test loop it replaces, including duplicate indexes within one
// group and the running popcount.
func TestSetAllTestAllMatchScalar(t *testing.T) {
	r := xrand.New(11)
	fast := MustNew(10)
	slow := MustNew(10)

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

		wantNew := 0
		for _, h := range idxs {
			if slow.Set(h) {
				wantNew++
			}
		}
		if got := fast.SetAll(idxs); got != wantNew {
			t.Fatalf("round %d: SetAll = %d newly set, scalar %d", round, got, wantNew)
		}

		probe := r.Uint64()
		if r.Bool(0.5) {
			probe = idxs[r.Intn(len(idxs))]
		}
		group := []uint64{probe, r.Uint64()}
		wantAll := slow.Test(group[0]) && slow.Test(group[1])
		if got := fast.TestAll(group); got != wantAll {
			t.Fatalf("round %d: TestAll(%v) = %v, scalar %v", round, group, got, wantAll)
		}

		if fast.PopCount() != slow.PopCount() {
			t.Fatalf("round %d: popcount diverged: %d vs %d", round, fast.PopCount(), slow.PopCount())
		}
	}
	if !fast.Equal(slow) {
		t.Fatal("vectors diverged after interleaved SetAll/Set")
	}
}

func TestTestAllEmpty(t *testing.T) {
	v := MustNew(6)
	if !v.TestAll(nil) {
		t.Error("TestAll(nil) = false, want vacuous true")
	}
	if n := v.SetAll(nil); n != 0 {
		t.Errorf("SetAll(nil) = %d", n)
	}
}

// TestPrefetchChangesNothing: Prefetch is a hint. Over indexes above the mask
// (raw hash outputs, and the vector's last word), repeated indexes and an
// empty group it leaves every word and the running popcount as they were,
// at an order that fits the cache and one that does not.
func TestPrefetchChangesNothing(t *testing.T) {
	r := xrand.New(29)
	for _, order := range []uint{6, 12, 25} {
		v := MustNew(order)
		for i := 0; i < 1000; i++ {
			v.Set(r.Uint64())
		}
		before := &Vector{words: slices.Clone(v.words), order: v.order, mask: v.mask, count: v.count}
		last := v.Len() - 1
		for _, idxs := range [][]uint64{
			nil,
			{},
			{last, last + 1, ^uint64(0), 1 << 40, r.Uint64(), r.Uint64()},
			{7, 7, 7, last, last},
		} {
			v.Prefetch(idxs)
			if !v.Equal(before) || v.PopCount() != before.PopCount() {
				t.Fatalf("order %d: Prefetch(%v) changed the vector: %v, was %v", order, idxs, v, before)
			}
		}
	}
}
