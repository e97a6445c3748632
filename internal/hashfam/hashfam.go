// Package hashfam provides the family of m hash functions shared by all bit
// vectors of a bitmap filter (§3.3: "All the bloom filters in the bitmap
// share the same m hash functions, each of which should only output an n-bit
// value").
//
// Two independent 64-bit base hashes are implemented from scratch — a
// Murmur3-style mixer and an xxHash-style avalanche — and larger families
// are derived with the Kirsch–Mitzenmacher construction
// g_i(x) = h1(x) + i·h2(x), which preserves Bloom-filter false-positive
// behaviour while requiring only two base hash evaluations per lookup.
// Outputs are full 64-bit values; the bit vector truncates them to n bits,
// matching the paper's truncation rule.
package hashfam

import (
	"errors"
	"fmt"
)

// MaxFunctions bounds the family size. The paper's optimal m is 3 for its
// configuration; 64 leaves generous room for ablation sweeps.
const MaxFunctions = 64

// ErrCount is returned by New when the requested function count is invalid.
var ErrCount = errors.New("hashfam: function count out of range")

// Murmur64 computes a MurmurHash3-style 64-bit hash of data: 8-byte blocks
// mixed with the Murmur3 constants and the fmix64 finalizer.
func Murmur64(data []byte, seed uint64) uint64 {
	const (
		c1 = 0x87c37b91114253d5
		c2 = 0x4cf5ad432745937f
	)
	h := seed
	n := len(data)
	i := 0
	for ; i+8 <= n; i += 8 {
		k := le64(data[i:])
		k *= c1
		k = rotl64(k, 31)
		k *= c2
		h ^= k
		h = rotl64(h, 27)
		h = h*5 + 0x52dce729
	}
	var tail uint64
	for j := n - 1; j >= i; j-- {
		tail = tail<<8 | uint64(data[j])
	}
	if n > i {
		tail *= c1
		tail = rotl64(tail, 31)
		tail *= c2
		h ^= tail
	}
	h ^= uint64(n)
	return fmix64(h)
}

// XX64 computes an xxHash64-style hash of data. For the short tuple keys the
// filter hashes (12–16 bytes), the single-lane variant is used.
func XX64(data []byte, seed uint64) uint64 {
	const (
		prime1 = 0x9e3779b185ebca87
		prime2 = 0xc2b2ae3d27d4eb4f
		prime3 = 0x165667b19e3779f9
		prime4 = 0x85ebca77c2b2ae63
		prime5 = 0x27d4eb2f165667c5
	)
	n := len(data)
	h := seed + prime5 + uint64(n)
	i := 0
	for ; i+8 <= n; i += 8 {
		k := le64(data[i:]) * prime2
		k = rotl64(k, 31) * prime1
		h ^= k
		h = rotl64(h, 27)*prime1 + prime4
	}
	if i+4 <= n {
		h ^= uint64(le32(data[i:])) * prime1
		h = rotl64(h, 23)*prime2 + prime3
		i += 4
	}
	for ; i < n; i++ {
		h ^= uint64(data[i]) * prime5
		h = rotl64(h, 11) * prime1
	}
	h ^= h >> 33
	h *= prime2
	h ^= h >> 29
	h *= prime3
	h ^= h >> 32
	return h
}

// Family is an immutable set of m hash functions derived from two base
// hashes via the Kirsch–Mitzenmacher construction. It is safe for concurrent
// use.
type Family struct {
	m    int
	seed uint64
}

// New returns a family of m hash functions parameterized by seed. Two
// families with the same (m, seed) are identical; different seeds give
// independent families.
func New(m int, seed uint64) (*Family, error) {
	if m < 1 || m > MaxFunctions {
		return nil, fmt.Errorf("%w: %d not in [1, %d]", ErrCount, m, MaxFunctions)
	}
	return &Family{m: m, seed: seed}, nil
}

// MustNew is New for statically known arguments; it panics on error.
func MustNew(m int, seed uint64) *Family {
	f, err := New(m, seed)
	if err != nil {
		panic(err)
	}
	return f
}

// M returns the number of hash functions in the family.
func (f *Family) M() int { return f.m }

// Seed returns the family seed.
func (f *Family) Seed() uint64 { return f.seed }

// Base computes the two base hashes (h1, h2) of data. h2 is forced odd so
// that g_i = h1 + i·h2 walks a full-period sequence modulo any power of two,
// avoiding index collisions between family members on 2^n-bit vectors.
func (f *Family) Base(data []byte) (h1, h2 uint64) {
	h1 = Murmur64(data, f.seed)
	h2 = XX64(data, f.seed^0xa5a5a5a5a5a5a5a5) | 1
	return h1, h2
}

func rotl64(x uint64, k uint) uint64 {
	return (x << k) | (x >> (64 - k))
}

func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

func le64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func le32(b []byte) uint32 {
	_ = b[3]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
