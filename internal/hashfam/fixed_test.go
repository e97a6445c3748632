package hashfam

import (
	"testing"

	"bitmapfilter/internal/xrand"
)

// packLE packs up to FixedKeyMax bytes into the (lo, hi) little-endian lane
// pair the fixed kernels consume.
func packLE(b []byte) (lo, hi uint64) {
	for i, c := range b {
		if i < 8 {
			lo |= uint64(c) << (8 * uint(i))
		} else {
			hi |= uint64(c) << (8 * uint(i-8))
		}
	}
	return lo, hi
}

// TestFixedKernelsMatchByteKernels pins the fixed-width kernels to the
// []byte reference kernels: for every length 0..FixedKeyMax and many random
// byte patterns and seeds, Murmur64Fixed/XX64Fixed must produce the exact
// value of Murmur64/XX64 over the same bytes. This is what guarantees that
// switching the filter hot path to the fixed kernels changes no hash value,
// hence no filter behavior and no snapshot compatibility.
func TestFixedKernelsMatchByteKernels(t *testing.T) {
	r := xrand.New(7)
	buf := make([]byte, FixedKeyMax)
	for n := 0; n <= FixedKeyMax; n++ {
		for trial := 0; trial < 2000; trial++ {
			for i := 0; i < n; i++ {
				buf[i] = byte(r.Uint32())
			}
			seed := r.Uint64()
			data := buf[:n]
			lo, hi := packLE(data)
			if got, want := Murmur64Fixed(lo, hi, n, seed), Murmur64(data, seed); got != want {
				t.Fatalf("Murmur64Fixed(n=%d, seed=%#x, data=%x) = %#x, want %#x", n, seed, data, got, want)
			}
			if got, want := XX64Fixed(lo, hi, n, seed), XX64(data, seed); got != want {
				t.Fatalf("XX64Fixed(n=%d, seed=%#x, data=%x) = %#x, want %#x", n, seed, data, got, want)
			}
		}
	}
}

// TestIndexesFixedMatchesBase pins the derived family outputs: the whole
// Kirsch–Mitzenmacher index group of the fixed entry point is
// h1 + i·h2 of the byte one's base pair.
func TestIndexesFixedMatchesBase(t *testing.T) {
	r := xrand.New(8)
	for _, m := range []int{1, 3, 8} {
		fam := MustNew(m, r.Uint64())
		for trial := 0; trial < 500; trial++ {
			n := int(r.Uint32() % (FixedKeyMax + 1))
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(r.Uint32())
			}
			lo, hi := packLE(data)
			h1, h2 := fam.Base(data)
			got := fam.IndexesFixed(nil, lo, hi, n)
			if len(got) != m {
				t.Fatalf("m=%d: %d indexes", m, len(got))
			}
			for i := range got {
				if want := h1 + uint64(i)*h2; got[i] != want {
					t.Fatalf("m=%d n=%d data=%x: index %d: %#x, want %#x", m, n, data, i, got[i], want)
				}
			}
		}
	}
}

// TestBase11MatchesBaseFixed pins the 11-byte kernel the filter's partial
// tuple key runs through to the general one: the same pair as
// BaseFixed(lo, hi, 11) over random lanes (bytes of hi past the key's
// included) and seeds.
func TestBase11MatchesBaseFixed(t *testing.T) {
	r := xrand.New(11)
	for trial := 0; trial < 20000; trial++ {
		fam := MustNew(1+int(r.Uint32()%8), r.Uint64())
		lo, hi := r.Uint64(), r.Uint64()
		g1, g2 := fam.Base11(lo, hi)
		w1, w2 := fam.BaseFixed(lo, hi, 11)
		if g1 != w1 || g2 != w2 {
			t.Fatalf("seed %#x lanes (%#x, %#x): Base11 (%#x, %#x), BaseFixed (%#x, %#x)", fam.Seed(), lo, hi, g1, g2, w1, w2)
		}
	}
}

// FuzzBase11 is TestBase11MatchesBaseFixed over whatever lanes and seeds the
// fuzzer finds.
func FuzzBase11(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0))
	f.Add(^uint64(0), ^uint64(0), uint64(0xa5a5a5a5a5a5a5a5))
	f.Add(uint64(0x0102030405060708), uint64(0x090a0b), uint64(77))
	f.Fuzz(func(t *testing.T, lo, hi, seed uint64) {
		fam := MustNew(3, seed)
		g1, g2 := fam.Base11(lo, hi)
		if w1, w2 := fam.BaseFixed(lo, hi, 11); g1 != w1 || g2 != w2 {
			t.Fatalf("seed %#x lanes (%#x, %#x): Base11 (%#x, %#x), BaseFixed (%#x, %#x)", seed, lo, hi, g1, g2, w1, w2)
		}
	})
}
