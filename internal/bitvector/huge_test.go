package bitvector

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"testing"

	"bitmapfilter/internal/xrand"
)

// totalAlloc returns the bytes f allocated on the heap.
func totalAlloc(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestOrder24IsPlainMake: below the huge-page gate a vector allocates its
// 2 MiB of words and nothing more — no 2 MiB of alignment slack.
func TestOrder24IsPlainMake(t *testing.T) {
	var v *Vector
	got := totalAlloc(func() { v = MustNew(24) })
	if got < 2<<20 || got >= 3<<20 {
		t.Errorf("New(24) allocated %d bytes, want 2 MiB and change", got)
	}
	if len(v.words) != 1<<18 || cap(v.words) != 1<<18 {
		t.Errorf("len, cap = %d, %d; want %d", len(v.words), cap(v.words), 1<<18)
	}
}

// TestOrder25RoundTrip drives every kind of operation over a vector above
// the gate: Set, TestAll, WriteTo → ReadFrom (the stream is still one
// little-endian word after another), SubsetOf and Reset.
func TestOrder25RoundTrip(t *testing.T) {
	v := MustNew(25)
	r := xrand.New(25)
	idxs := make([]uint64, 20000)
	for i := range idxs {
		idxs[i] = r.Uint64()
		v.Set(idxs[i])
	}
	if !v.TestAll(idxs) {
		t.Fatal("TestAll misses a bit Set set")
	}
	var buf bytes.Buffer
	if n, err := v.WriteTo(&buf); err != nil || n != int64(v.Bytes()) {
		t.Fatalf("WriteTo = %d, %v; want %d bytes", n, err, v.Bytes())
	}
	want := make([]byte, 0, v.Bytes())
	for _, w := range v.words {
		want = binary.LittleEndian.AppendUint64(want, w)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("WriteTo's stream is not the words in little-endian order")
	}
	w := MustNew(25)
	if n, err := w.ReadFrom(&buf); err != nil || n != int64(v.Bytes()) {
		t.Fatalf("ReadFrom = %d, %v; want %d bytes", n, err, v.Bytes())
	}
	if !w.Equal(v) || !w.SubsetOf(v) || !v.SubsetOf(w) {
		t.Fatal("round trip not equal")
	}
	w.Set(^idxs[0])
	if !v.SubsetOf(w) || w.SubsetOf(v) {
		t.Error("SubsetOf wrong after one more bit")
	}
	v.Reset()
	if v.PopCount() != 0 || v.TestAll(idxs[:1]) || !v.SubsetOf(w) {
		t.Error("Reset left bits set")
	}
}

// TestStreamingAllocatesLittle: a checkpoint streams the words through one
// small buffer, so an order-25 (4 MiB) round trip allocates well under a
// MiB instead of a copy of the vector on each side.
func TestStreamingAllocatesLittle(t *testing.T) {
	v, w := MustNew(25), MustNew(25)
	v.Set(12345)
	got := totalAlloc(func() {
		pr, pw := io.Pipe()
		go func() {
			_, err := v.WriteTo(pw)
			pw.CloseWithError(err)
		}()
		if _, err := w.ReadFrom(pr); err != nil {
			t.Error(err)
		}
	})
	if got >= 1<<20 {
		t.Errorf("order-25 round trip allocated %d bytes, want < 1 MiB", got)
	}
	if !w.Equal(v) {
		t.Error("round trip not equal")
	}
}
