package bitvector

import (
	"bytes"
	"math/bits"
	"testing"

	"bitmapfilter/internal/xrand"
)

// scanCount recomputes the popcount the old O(2^n/64) way; every test here
// checks the running count against it.
func scanCount(v *Vector) uint64 {
	var c int
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return uint64(c)
}

func checkCount(t *testing.T, v *Vector, label string) {
	t.Helper()
	if got, want := v.PopCount(), scanCount(v); got != want {
		t.Fatalf("%s: PopCount = %d, scan = %d", label, got, want)
	}
}

func TestRunningCountSetClear(t *testing.T) {
	v := MustNew(10)
	r := xrand.New(1)
	for i := 0; i < 5000; i++ {
		idx := r.Uint64()
		if r.Bool(0.5) {
			was := v.Test(idx)
			if newly := v.Set(idx); newly == was {
				t.Fatalf("Set(%d) newly=%v but bit was %v", idx, newly, was)
			}
		} else {
			was := v.Test(idx)
			if cleared := v.Clear(idx); cleared != was {
				t.Fatalf("Clear(%d) cleared=%v but bit was %v", idx, cleared, was)
			}
		}
	}
	checkCount(t, v, "after random set/clear")
}

func TestRunningCountSetIdempotent(t *testing.T) {
	v := MustNew(8)
	if !v.Set(42) {
		t.Error("first Set(42) not newly set")
	}
	if v.Set(42) {
		t.Error("second Set(42) reported newly set")
	}
	if v.PopCount() != 1 {
		t.Errorf("PopCount = %d after double set", v.PopCount())
	}
	if !v.Clear(42) {
		t.Error("Clear(42) of a set bit returned false")
	}
	if v.Clear(42) {
		t.Error("Clear(42) of a clear bit returned true")
	}
	if v.PopCount() != 0 {
		t.Errorf("PopCount = %d after double clear", v.PopCount())
	}
}

func TestRunningCountReset(t *testing.T) {
	v := MustNew(10)
	r := xrand.New(2)
	for i := 0; i < 300; i++ {
		v.Set(r.Uint64())
	}
	v.Reset()
	if v.PopCount() != 0 {
		t.Errorf("PopCount = %d after Reset", v.PopCount())
	}
	checkCount(t, v, "after Reset")
}

func TestRunningCountReadFrom(t *testing.T) {
	a := MustNew(10)
	r := xrand.New(5)
	for i := 0; i < 250; i++ {
		a.Set(r.Uint64())
	}
	var buf bytes.Buffer
	if _, err := a.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	b := MustNew(10)
	b.Set(3) // prior state must be replaced, count included
	if _, err := b.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	checkCount(t, b, "after ReadFrom")
	if !a.Equal(b) {
		t.Error("round-tripped vector differs")
	}
}
