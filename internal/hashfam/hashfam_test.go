package hashfam

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"bitmapfilter/internal/xrand"
)

func TestSeedChangesOutput(t *testing.T) {
	data := []byte("some tuple bytes")
	if Murmur64(data, 1) == Murmur64(data, 2) {
		t.Error("Murmur64 seeds 1 and 2 collide")
	}
	if XX64(data, 1) == XX64(data, 2) {
		t.Error("XX64 seeds 1 and 2 collide")
	}
}

func TestHashesDeterministic(t *testing.T) {
	f := func(data []byte, seed uint64) bool {
		return Murmur64(data, seed) == Murmur64(data, seed) &&
			XX64(data, seed) == XX64(data, seed)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashesDifferFromEachOther(t *testing.T) {
	data := []byte("192.0.2.1:12345->198.51.100.7:80")
	if a, b := Murmur64(data, 7), XX64(data, 7); a == b {
		t.Errorf("base hashes collide: %#x %#x", a, b)
	}
}

func TestTailBytesMatter(t *testing.T) {
	// Inputs differing only in the final (non-block) byte must hash
	// differently: exercises the tail paths of Murmur64 and XX64.
	a := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}
	b := append(append([]byte{}, a[:12]...), 99)
	if Murmur64(a, 0) == Murmur64(b, 0) {
		t.Error("Murmur64 ignores tail byte")
	}
	if XX64(a, 0) == XX64(b, 0) {
		t.Error("XX64 ignores tail byte")
	}
	// And a 13-vs-12-byte input (length must be mixed in).
	if Murmur64(a[:12], 0) == Murmur64(a, 0) {
		t.Error("Murmur64 ignores length")
	}
	if XX64(a[:12], 0) == XX64(a, 0) {
		t.Error("XX64 ignores length")
	}
}

func TestAvalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits on
	// average. Accept a generous [20, 44] band over 2048 trials.
	r := xrand.New(1)
	for name, h := range map[string]func([]byte, uint64) uint64{
		"murmur": Murmur64,
		"xx":     XX64,
	} {
		var totalFlips, trials int
		buf := make([]byte, 13)
		for trial := 0; trial < 2048; trial++ {
			for i := range buf {
				buf[i] = byte(r.Uint64())
			}
			orig := h(buf, 0)
			bit := r.Intn(len(buf) * 8)
			buf[bit/8] ^= 1 << (bit % 8)
			flipped := h(buf, 0)
			totalFlips += popcount(orig ^ flipped)
			trials++
		}
		mean := float64(totalFlips) / float64(trials)
		if mean < 20 || mean > 44 {
			t.Errorf("%s avalanche mean bit flips = %v, want ~32", name, mean)
		}
	}
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		m       int
		wantErr bool
	}{
		{m: 0, wantErr: true},
		{m: -1, wantErr: true},
		{m: 1, wantErr: false},
		{m: 3, wantErr: false},
		{m: MaxFunctions, wantErr: false},
		{m: MaxFunctions + 1, wantErr: true},
	}
	for _, tt := range tests {
		_, err := New(tt.m, 0)
		if gotErr := err != nil; gotErr != tt.wantErr {
			t.Errorf("New(%d) error = %v, wantErr %v", tt.m, err, tt.wantErr)
		}
		if err != nil && !errors.Is(err, ErrCount) {
			t.Errorf("New(%d) error %v is not ErrCount", tt.m, err)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew(0, 0) did not panic")
		}
	}()
	MustNew(0, 0)
}

func TestFamilyAccessors(t *testing.T) {
	f := MustNew(3, 42)
	if f.M() != 3 {
		t.Errorf("M = %d", f.M())
	}
	if f.Seed() != 42 {
		t.Errorf("Seed = %d", f.Seed())
	}
}

func TestBaseDeterministic(t *testing.T) {
	f := MustNew(5, 9)
	data := []byte("tuple")
	a1, a2 := f.Base(data)
	b1, b2 := MustNew(5, 9).Base(data)
	if a1 != b1 || a2 != b2 {
		t.Errorf("Base is not a function of (m, seed, data): (%#x, %#x) then (%#x, %#x)", a1, a2, b1, b2)
	}
}

func TestKirschMitzenmacherStep(t *testing.T) {
	// g_i = h1 + i·h2 walks a full period modulo a power of two only if h2
	// is odd.
	r := xrand.New(3)
	for trial := 0; trial < 1000; trial++ {
		data := []byte{byte(r.Uint64()), byte(r.Uint64()), byte(r.Uint64())}
		if _, h2 := MustNew(8, r.Uint64()).Base(data); h2%2 != 1 {
			t.Fatalf("h2 = %#x of %x is even", h2, data)
		}
	}
}

func TestFamiliesWithDifferentSeedsDiffer(t *testing.T) {
	data := []byte("same data")
	a1, a2 := MustNew(3, 1).Base(data)
	b1, b2 := MustNew(3, 2).Base(data)
	if a1 == b1 || a2 == b2 {
		t.Errorf("seeds 1 and 2 share a base hash: (%#x, %#x), (%#x, %#x)", a1, a2, b1, b2)
	}
}

func TestIndexDistributionUniformity(t *testing.T) {
	// Masked to 2^10 buckets, 40K hashed tuples should fill buckets with a
	// chi-square-ish spread: no bucket wildly over- or under-full.
	f := MustNew(1, 5)
	const (
		buckets = 1 << 10
		samples = 40000
	)
	counts := make([]int, buckets)
	var key [12]byte
	r := xrand.New(2)
	for i := 0; i < samples; i++ {
		for j := range key {
			key[j] = byte(r.Uint64())
		}
		h, _ := f.Base(key[:])
		counts[h&(buckets-1)]++
	}
	expect := float64(samples) / buckets
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - expect
		chi2 += d * d / expect
	}
	// For 1023 dof, mean chi2 is ~1023 with stddev ~45; allow 5 sigma.
	if math.Abs(chi2-float64(buckets-1)) > 5*45 {
		t.Errorf("chi-square = %v, want ~%d", chi2, buckets-1)
	}
}

func BenchmarkBase(b *testing.B) {
	f := MustNew(3, 1)
	key := []byte{192, 0, 2, 1, 0x30, 0x39, 198, 51, 100, 7, 0, 80}
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		h1, h2 := f.Base(key)
		sink += h1 ^ h2
	}
	_ = sink
}

func BenchmarkMurmur64Tuple(b *testing.B) {
	key := []byte{192, 0, 2, 1, 0x30, 0x39, 198, 51, 100, 7, 0, 80}
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += Murmur64(key, 0)
	}
	_ = sink
}
