package bitvector

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"bitmapfilter/internal/xrand"
)

func TestNewOrderValidation(t *testing.T) {
	tests := []struct {
		order   uint
		wantErr bool
	}{
		{order: 5, wantErr: true},
		{order: 6, wantErr: false},
		{order: 20, wantErr: false},
		{order: 32, wantErr: false},
		{order: 33, wantErr: true},
	}
	for _, tt := range tests {
		_, err := New(tt.order)
		if gotErr := err != nil; gotErr != tt.wantErr {
			t.Errorf("New(%d) error = %v, wantErr %v", tt.order, err, tt.wantErr)
		}
		if err != nil && !errors.Is(err, ErrOrderRange) {
			t.Errorf("New(%d) error %v is not ErrOrderRange", tt.order, err)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew(1) did not panic")
		}
	}()
	MustNew(1)
}

func TestLenAndBytes(t *testing.T) {
	v := MustNew(20)
	if v.Len() != 1<<20 {
		t.Errorf("Len = %d", v.Len())
	}
	if v.Bytes() != (1<<20)/8 {
		t.Errorf("Bytes = %d", v.Bytes())
	}
	if v.Order() != 20 {
		t.Errorf("Order = %d", v.Order())
	}
}

func TestSetTestClear(t *testing.T) {
	v := MustNew(10)
	for i := uint64(0); i < v.Len(); i++ {
		if v.Test(i) {
			t.Fatalf("fresh vector has bit %d set", i)
		}
	}
	v.Set(0)
	v.Set(63)
	v.Set(64)
	v.Set(v.Len() - 1)
	for _, i := range []uint64{0, 63, 64, v.Len() - 1} {
		if !v.Test(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if v.PopCount() != 4 {
		t.Errorf("PopCount = %d, want 4", v.PopCount())
	}
	v.Clear(63)
	if v.Test(63) {
		t.Error("bit 63 still set after Clear")
	}
	if v.PopCount() != 3 {
		t.Errorf("PopCount after clear = %d, want 3", v.PopCount())
	}
}

func TestIndexMasking(t *testing.T) {
	// Raw 64-bit hash values must be reduced mod 2^order.
	v := MustNew(8)
	h := uint64(0xdeadbeefcafe0000) | 37
	v.Set(h)
	if !v.Test(37) {
		t.Error("Set with high bits did not land on masked index")
	}
	if !v.Test(h) {
		t.Error("Test with high bits did not find masked index")
	}
	if v.Mask(h) != 37&v.mask {
		t.Errorf("Mask(%#x) = %d", h, v.Mask(h))
	}
}

func TestReset(t *testing.T) {
	v := MustNew(12)
	r := xrand.New(1)
	for i := 0; i < 500; i++ {
		v.Set(r.Uint64())
	}
	if v.PopCount() == 0 {
		t.Fatal("setup produced empty vector")
	}
	v.Reset()
	if v.PopCount() != 0 {
		t.Errorf("PopCount after Reset = %d", v.PopCount())
	}
}

func TestUtilization(t *testing.T) {
	v := MustNew(10) // 1024 bits
	for i := uint64(0); i < 256; i++ {
		v.Set(i)
	}
	if got := v.Utilization(); got != 0.25 {
		t.Errorf("Utilization = %v, want 0.25", got)
	}
}

func TestOr(t *testing.T) {
	a := MustNew(8)
	b := MustNew(8)
	a.Set(1)
	b.Set(2)
	if err := a.Or(b); err != nil {
		t.Fatalf("Or: %v", err)
	}
	if !a.Test(1) || !a.Test(2) {
		t.Error("Or did not union bits")
	}
	c := MustNew(9)
	if err := a.Or(c); err == nil {
		t.Error("Or across orders did not error")
	}
}

func TestCopyFromAndClone(t *testing.T) {
	a := MustNew(8)
	a.Set(5)
	a.Set(200)

	b := MustNew(8)
	if err := b.CopyFrom(a); err != nil {
		t.Fatalf("CopyFrom: %v", err)
	}
	if !b.Equal(a) {
		t.Error("CopyFrom result not equal")
	}
	b.Set(7)
	if a.Test(7) {
		t.Error("CopyFrom aliases storage")
	}

	c := a.Clone()
	if !c.Equal(a) {
		t.Error("Clone not equal")
	}
	c.Set(9)
	if a.Test(9) {
		t.Error("Clone aliases storage")
	}

	d := MustNew(9)
	if err := d.CopyFrom(a); err == nil {
		t.Error("CopyFrom across orders did not error")
	}
}

func TestEqual(t *testing.T) {
	a, b := MustNew(8), MustNew(8)
	if !a.Equal(b) {
		t.Error("fresh vectors not equal")
	}
	a.Set(3)
	if a.Equal(b) {
		t.Error("differing vectors reported equal")
	}
	if a.Equal(MustNew(9)) {
		t.Error("different orders reported equal")
	}
}

func TestSubsetOf(t *testing.T) {
	a, b := MustNew(8), MustNew(8)
	if !a.SubsetOf(b) || !a.SubsetOf(a) {
		t.Error("empty vector not a subset of an empty one, or of itself")
	}
	b.Set(3)
	b.Set(200) // a later word than bit 3's
	if !a.SubsetOf(b) || b.SubsetOf(a) {
		t.Error("∅ ⊆ {3,200} must hold and {3,200} ⊆ ∅ must not")
	}
	a.Set(200)
	if !a.SubsetOf(b) {
		t.Error("{200} not a subset of {3,200}")
	}
	a.Set(201)
	if a.SubsetOf(b) {
		t.Error("{200,201} reported a subset of {3,200}: same word, different bit")
	}
	if MustNew(8).SubsetOf(MustNew(9)) {
		t.Error("vectors of different orders reported as subsets")
	}
}

func TestStringMentionsCounts(t *testing.T) {
	v := MustNew(8)
	v.Set(1)
	s := v.String()
	if s == "" {
		t.Error("empty String()")
	}
}

// Property: setting any sequence of indexes makes exactly those (masked)
// indexes readable and PopCount equals the distinct count.
func TestSetTestProperty(t *testing.T) {
	f := func(raw []uint64) bool {
		v := MustNew(12)
		distinct := make(map[uint64]bool)
		for _, h := range raw {
			v.Set(h)
			distinct[v.Mask(h)] = true
		}
		for _, h := range raw {
			if !v.Test(h) {
				return false
			}
		}
		return v.PopCount() == uint64(len(distinct))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Clear is the inverse of Set for any index when no aliasing
// occurs.
func TestClearProperty(t *testing.T) {
	f := func(h uint64) bool {
		v := MustNew(16)
		v.Set(h)
		v.Clear(h)
		return !v.Test(h) && v.PopCount() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWriteToReadFromRoundTrip(t *testing.T) {
	v := MustNew(12)
	r := xrand.New(5)
	for i := 0; i < 700; i++ {
		v.Set(r.Uint64())
	}
	var buf bytes.Buffer
	n, err := v.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(v.Bytes()) {
		t.Errorf("WriteTo wrote %d bytes, want %d", n, v.Bytes())
	}
	w := MustNew(12)
	if _, err := w.ReadFrom(&buf); err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	if !w.Equal(v) {
		t.Error("round trip not equal")
	}
}

func TestReadFromTruncated(t *testing.T) {
	v := MustNew(10)
	var buf bytes.Buffer
	if _, err := v.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	w := MustNew(10)
	if _, err := w.ReadFrom(bytes.NewReader(buf.Bytes()[:10])); err == nil {
		t.Error("truncated stream accepted")
	}
}

func BenchmarkSet(b *testing.B) {
	v := MustNew(20)
	r := xrand.New(1)
	idx := make([]uint64, 4096)
	for i := range idx {
		idx[i] = r.Uint64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Set(idx[i&4095])
	}
}

func BenchmarkTest(b *testing.B) {
	v := MustNew(20)
	r := xrand.New(1)
	idx := make([]uint64, 4096)
	for i := range idx {
		idx[i] = r.Uint64()
		v.Set(idx[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	var hits int
	for i := 0; i < b.N; i++ {
		if v.Test(idx[i&4095]) {
			hits++
		}
	}
	_ = hits
}

func BenchmarkReset(b *testing.B) {
	v := MustNew(20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Reset()
	}
}
