// Package bitvector implements the fixed-size bit vector that underlies both
// the Bloom filter and the bitmap filter. Each vector is 2^n bits, stored as
// a contiguous []uint64 so that the rotate operation of the bitmap filter —
// "reset all bits in the last bit vector to zero" — is a single sequential
// memory sweep, exactly the property §4.2 of the paper relies on for cheap
// garbage collection.
package bitvector

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
)

const (
	// MinOrder is the smallest supported vector order. 2^6 = 64 bits is
	// one machine word; anything smaller has no practical use.
	MinOrder = 6
	// MaxOrder caps a vector at 2^32 bits (512 MiB), far above any
	// configuration in the paper (which uses order 20, 128 KiB).
	MaxOrder = 32
)

// ErrOrderRange is returned by New when the requested order is outside
// [MinOrder, MaxOrder].
var ErrOrderRange = errors.New("bitvector: order out of range")

// Vector is a fixed-size bit vector of 2^order bits. The zero value is not
// usable; construct vectors with New.
//
// Every mutating operation maintains a running count of set bits, so
// PopCount and Utilization are O(1) field reads rather than scans over the
// word array. This is what makes per-packet penetration-probability
// sampling and metrics scrapes free (§4.2's "cheap introspection").
type Vector struct {
	words []uint64
	order uint
	mask  uint64 // 2^order - 1, applied to indexes by the Masked helpers
	count uint64 // running number of set bits, kept coherent by all mutators
}

// New returns a zeroed Vector of 2^order bits.
func New(order uint) (*Vector, error) {
	if order < MinOrder || order > MaxOrder {
		return nil, fmt.Errorf("%w: %d not in [%d, %d]", ErrOrderRange, order, MinOrder, MaxOrder)
	}
	return &Vector{
		words: make([]uint64, 1<<(order-6)),
		order: order,
		mask:  1<<order - 1,
	}, nil
}

// MustNew is New for statically known orders; it panics on error and exists
// for tests and package-internal constants.
func MustNew(order uint) *Vector {
	v, err := New(order)
	if err != nil {
		panic(err)
	}
	return v
}

// Order returns the order n of the vector (the vector holds 2^n bits).
func (v *Vector) Order() uint { return v.order }

// Len returns the number of bits in the vector.
func (v *Vector) Len() uint64 { return 1 << v.order }

// Bytes returns the storage footprint of the vector's bit array in bytes.
func (v *Vector) Bytes() uint64 { return v.Len() / 8 }

// Mask reduces an arbitrary 64-bit hash output to a valid bit index. This is
// the "output that exceeds n-bit should be truncated" rule from §3.3.
func (v *Vector) Mask(h uint64) uint64 { return h & v.mask }

// Set sets bit i and reports whether it was newly set (false if the bit
// was already 1). Indexes are reduced modulo the vector size so callers may
// pass raw hash outputs directly.
//
//bf:hotpath
func (v *Vector) Set(i uint64) bool {
	i &= v.mask
	w := &v.words[i>>6]
	b := uint64(1) << (i & 63)
	if *w&b != 0 {
		return false
	}
	*w |= b
	v.count++
	return true
}

// Clear clears bit i (reduced modulo the vector size) and reports whether
// the bit was previously set.
//
//bf:hotpath
func (v *Vector) Clear(i uint64) bool {
	i &= v.mask
	w := &v.words[i>>6]
	b := uint64(1) << (i & 63)
	if *w&b == 0 {
		return false
	}
	*w &^= b
	v.count--
	return true
}

// Test reports whether bit i is set (index reduced modulo the vector size).
//
//bf:hotpath
func (v *Vector) Test(i uint64) bool {
	i &= v.mask
	return v.words[i>>6]&(1<<(i&63)) != 0
}

// SetAll sets every bit named by idxs (each reduced modulo the vector
// size) and returns how many were newly set; an index repeated inside the
// group counts once.
//
//bf:hotpath
func (v *Vector) SetAll(idxs []uint64) int {
	newly := 0
	for _, i := range idxs {
		if v.Set(i) {
			newly++
		}
	}
	return newly
}

// SetAllVectors sets every bit named by idxs in every vector of vs — the
// mark of Algorithm 2. All vectors must share one order: each index is
// reduced and split into (word, bit) once, with the first vector's mask,
// and applied to all of them.
//
//bf:hotpath
func SetAllVectors(vs []*Vector, idxs []uint64) {
	if len(vs) == 0 {
		return
	}
	mask := vs[0].mask
	for _, i := range idxs {
		i &= mask
		w, b := i>>6, uint64(1)<<(i&63)
		for _, v := range vs {
			if v.words[w]&b == 0 {
				v.words[w] |= b
				v.count++
			}
		}
	}
}

// TestAll reports whether every bit named by idxs (each reduced modulo the
// vector size) is set — the lookup of Algorithm 2 — stopping at the first
// clear bit. An empty group is vacuously true.
//
//bf:hotpath
func (v *Vector) TestAll(idxs []uint64) bool {
	for _, i := range idxs {
		if !v.Test(i) {
			return false
		}
	}
	return true
}

// Prefetch asks the CPU to start loading the word that holds each bit idxs
// names (reduced modulo the vector size) into the cache, and returns without
// waiting for any of them. It is a hint, not a load: it reads and writes no
// bit and no count, and does nothing on an architecture without the
// instruction (prefetch_amd64.s; prefetch_other.go). It pays for a caller
// that knows its indexes a few packets ahead and a vector larger than the
// cache.
//
//bf:hotpath
func (v *Vector) Prefetch(idxs []uint64) {
	prefetchWords(v.words, v.mask, idxs)
}

// Reset zeroes every bit. This is the b.rotate clean-up; it touches a fixed,
// contiguous region and is therefore O(2^n / 64) word writes.
func (v *Vector) Reset() {
	clear(v.words)
	v.count = 0
}

// PopCount returns the number of set bits. The bitmap filter uses this to
// report utilization U = b / 2^n (§4.1). It is an O(1) read of the running
// count maintained by the mutating operations.
func (v *Vector) PopCount() uint64 {
	return v.count
}

// Utilization returns the fraction of set bits, U in the paper's analysis.
func (v *Vector) Utilization() float64 {
	return float64(v.PopCount()) / float64(v.Len())
}

// Or sets v to the bitwise OR of v and other. It returns an error if the two
// vectors have different orders.
func (v *Vector) Or(other *Vector) error {
	if other.order != v.order {
		return fmt.Errorf("bitvector: or of order %d with order %d", v.order, other.order)
	}
	for i, w := range other.words {
		merged := v.words[i] | w
		v.count += uint64(bits.OnesCount64(merged &^ v.words[i]))
		v.words[i] = merged
	}
	return nil
}

// CopyFrom overwrites v with the contents of other. It returns an error if
// the two vectors have different orders.
func (v *Vector) CopyFrom(other *Vector) error {
	if other.order != v.order {
		return fmt.Errorf("bitvector: copy of order %d into order %d", other.order, v.order)
	}
	copy(v.words, other.words)
	v.count = other.count
	return nil
}

// Clone returns a deep copy of v.
func (v *Vector) Clone() *Vector {
	c := &Vector{
		words: make([]uint64, len(v.words)),
		order: v.order,
		mask:  v.mask,
		count: v.count,
	}
	copy(c.words, v.words)
	return c
}

// Equal reports whether v and other have identical size and contents.
func (v *Vector) Equal(other *Vector) bool {
	if v.order != other.order || v.count != other.count {
		return false
	}
	for i, w := range v.words {
		if w != other.words[i] {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every bit set in v is also set in other: one
// sequential sweep over both word arrays. Vectors of different orders are
// never subsets of one another.
func (v *Vector) SubsetOf(other *Vector) bool {
	if v.order != other.order {
		return false
	}
	for i, w := range v.words {
		if w&^other.words[i] != 0 {
			return false
		}
	}
	return true
}

// String summarizes the vector for debugging.
func (v *Vector) String() string {
	return fmt.Sprintf("bitvector{order=%d bits=%d set=%d}", v.order, v.Len(), v.PopCount())
}

// WriteTo serializes the raw bit array (little-endian words) to w. It
// implements io.WriterTo; pair it with ReadFrom on a vector of the same
// order.
func (v *Vector) WriteTo(w io.Writer) (int64, error) {
	buf := make([]byte, 8*len(v.words))
	for i, word := range v.words {
		binary.LittleEndian.PutUint64(buf[i*8:], word)
	}
	n, err := w.Write(buf)
	return int64(n), err
}

// ReadFrom fills the vector from a stream produced by WriteTo on a vector
// of the same order. It implements io.ReaderFrom.
func (v *Vector) ReadFrom(r io.Reader) (int64, error) {
	buf := make([]byte, 8*len(v.words))
	n, err := io.ReadFull(r, buf)
	if err != nil {
		return int64(n), fmt.Errorf("bitvector: read words: %w", err)
	}
	var c int
	for i := range v.words {
		w := binary.LittleEndian.Uint64(buf[i*8:])
		v.words[i] = w
		c += bits.OnesCount64(w)
	}
	v.count = uint64(c)
	return int64(n), nil
}

// Interface compliance checks.
var (
	_ io.WriterTo   = (*Vector)(nil)
	_ io.ReaderFrom = (*Vector)(nil)
)
