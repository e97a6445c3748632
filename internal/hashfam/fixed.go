package hashfam

// Fixed-width hash kernels for short keys. The bitmap filter hashes 11- or
// 13-byte tuple keys millions of times per second; routing them through the
// general []byte kernels costs a byte-slice materialization, per-block
// bounds checks and tail loops on every packet. The *Fixed variants accept
// the key packed into two little-endian 64-bit words (lo = bytes 0..7,
// hi = bytes 8..15) plus its true byte length n (0 <= n <= FixedKeyMax) and
// run fully straight-line in registers.
//
// They are value-identical to the []byte kernels over the same bytes —
// pinned by TestFixedKernelsMatchByteKernels — so snapshots, goldens and
// every filter behavior are unchanged by which entry point a caller uses.

// FixedKeyMax is the largest key length (in bytes) the fixed-width kernels
// accept: two 64-bit lanes.
const FixedKeyMax = 16

const (
	murmurC1 = 0x87c37b91114253d5
	murmurC2 = 0x4cf5ad432745937f

	xxPrime1 = 0x9e3779b185ebca87
	xxPrime2 = 0xc2b2ae3d27d4eb4f
	xxPrime3 = 0x165667b19e3779f9
	xxPrime4 = 0x85ebca77c2b2ae63
	xxPrime5 = 0x27d4eb2f165667c5
)

// Murmur64Fixed is Murmur64 over the n bytes packed into (lo, hi).
func Murmur64Fixed(lo, hi uint64, n int, seed uint64) uint64 {
	h := seed
	tail := lo
	rem := n
	if n >= 8 {
		k := lo * murmurC1
		k = rotl64(k, 31)
		k *= murmurC2
		h ^= k
		h = rotl64(h, 27)
		h = h*5 + 0x52dce729
		tail = hi
		rem = n - 8
	}
	if rem == 8 {
		// n == 16: the second lane is a full block, not a tail.
		k := hi * murmurC1
		k = rotl64(k, 31)
		k *= murmurC2
		h ^= k
		h = rotl64(h, 27)
		h = h*5 + 0x52dce729
		rem = 0
	}
	if rem > 0 {
		t := tail & (^uint64(0) >> (64 - 8*uint(rem)))
		t *= murmurC1
		t = rotl64(t, 31)
		t *= murmurC2
		h ^= t
	}
	h ^= uint64(n)
	return fmix64(h)
}

// XX64Fixed is XX64 over the n bytes packed into (lo, hi).
func XX64Fixed(lo, hi uint64, n int, seed uint64) uint64 {
	h := seed + xxPrime5 + uint64(n)
	rest := lo
	rem := n
	if n >= 8 {
		k := lo * xxPrime2
		k = rotl64(k, 31) * xxPrime1
		h ^= k
		h = rotl64(h, 27)*xxPrime1 + xxPrime4
		rest = hi
		rem = n - 8
	}
	if rem == 8 {
		// n == 16: the second lane is a full block too.
		k := hi * xxPrime2
		k = rotl64(k, 31) * xxPrime1
		h ^= k
		h = rotl64(h, 27)*xxPrime1 + xxPrime4
		rem = 0
	}
	if rem >= 4 {
		h ^= (rest & 0xffffffff) * xxPrime1
		h = rotl64(h, 23)*xxPrime2 + xxPrime3
		rest >>= 32
		rem -= 4
	}
	for ; rem > 0; rem-- {
		h ^= (rest & 0xff) * xxPrime5
		h = rotl64(h, 11) * xxPrime1
		rest >>= 8
	}
	h ^= h >> 33
	h *= xxPrime2
	h ^= h >> 29
	h *= xxPrime3
	h ^= h >> 32
	return h
}

// BaseFixed is Base for a key packed into (lo, hi) with byte length n.
func (f *Family) BaseFixed(lo, hi uint64, n int) (h1, h2 uint64) {
	h1 = Murmur64Fixed(lo, hi, n, f.seed)
	h2 = XX64Fixed(lo, hi, n, f.seed^0xa5a5a5a5a5a5a5a5) | 1
	return h1, h2
}

// IndexesFixed appends the m indexes g_i = h1 + i·h2 of a key packed into
// (lo, hi) with byte length n to dst. Passing a reusable dst[:0] keeps the
// hot path allocation-free.
func (f *Family) IndexesFixed(dst []uint64, lo, hi uint64, n int) []uint64 {
	h1, h2 := f.BaseFixed(lo, hi, n)
	for i := 0; i < f.m; i++ {
		dst = append(dst, h1+uint64(i)*h2)
	}
	return dst
}

// Base11 is BaseFixed(lo, hi, 11) — the pair of the filter's 11-byte
// partial-tuple key — with the length folded in: one block and a 3-byte tail
// per base hash, no branch. Bytes of hi above the third are ignored, as
// BaseFixed ignores them.
func (f *Family) Base11(lo, hi uint64) (h1, h2 uint64) {
	const n = 11
	tail := hi & 0xffffff

	h := f.seed
	k := rotl64(lo*murmurC1, 31) * murmurC2
	h ^= k
	h = rotl64(h, 27)*5 + 0x52dce729
	h ^= rotl64(tail*murmurC1, 31) * murmurC2
	h1 = fmix64(h ^ n)

	x := f.seed ^ 0xa5a5a5a5a5a5a5a5 + xxPrime5 + n
	x ^= rotl64(lo*xxPrime2, 31) * xxPrime1
	x = rotl64(x, 27)*xxPrime1 + xxPrime4
	x ^= (tail & 0xff) * xxPrime5
	x = rotl64(x, 11) * xxPrime1
	x ^= (tail >> 8 & 0xff) * xxPrime5
	x = rotl64(x, 11) * xxPrime1
	x ^= (tail >> 16) * xxPrime5
	x = rotl64(x, 11) * xxPrime1
	x ^= x >> 33
	x *= xxPrime2
	x ^= x >> 29
	x *= xxPrime3
	x ^= x >> 32
	return h1, x | 1
}
