// Package dec stands in for an untrusted decoder package (its synthetic
// import path ends in /pcap): every non-constant make size must be
// clamped locally.
package dec

import (
	"encoding/binary"
	"io"
)

const maxRecord = 1 << 20

type reader struct {
	r       io.Reader
	snapLen uint32
}

// BadUnclamped: the size comes straight off the wire.
func (r *reader) BadUnclamped() ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	buf := make([]byte, n) // want "make size n is not clamped"
	_, err := io.ReadFull(r.r, buf)
	return buf, err
}

// BadFieldBound: comparing against a struct field is not a clamp — the
// field may itself hold an unvalidated decoded value (the pcap snapLen
// bug).
func (r *reader) BadFieldBound(n uint32) ([]byte, error) {
	if n > r.snapLen {
		return nil, io.ErrUnexpectedEOF
	}
	buf := make([]byte, n) // want "make size n is not clamped"
	_, err := io.ReadFull(r.r, buf)
	return buf, err
}

// BadLowerBound: n <= 0 rejects a sign, not a size — 4 GiB passes it.
func BadLowerBound(data []byte) []byte {
	n := int(binary.LittleEndian.Uint32(data))
	if n <= 0 {
		return nil
	}
	return make([]byte, n) // want "make size n is not clamped"
}

// BadEquality: n != 7 allocates for every n but one.
func BadEquality(data []byte) []byte {
	n := int(binary.LittleEndian.Uint32(data))
	if n != 7 {
		return make([]byte, n) // want "make size n is not clamped"
	}
	return nil
}

// BadMax: max with a constant is a floor, not a ceiling.
func BadMax(n int) []byte {
	return make([]byte, max(n, 64)) // want "make size max\\(n, 64\\) is not clamped"
}

// GoodConstClamp: a comparison against a constant bounds the size.
func (r *reader) GoodConstClamp(n uint32) ([]byte, error) {
	if n > maxRecord {
		return nil, io.ErrUnexpectedEOF
	}
	buf := make([]byte, n)
	_, err := io.ReadFull(r.r, buf)
	return buf, err
}

// GoodLen: len/cap of existing memory cannot be attacker-inflated.
func GoodLen(data []byte) []byte {
	out := make([]byte, len(data))
	copy(out, data)
	return out
}

// GoodMin: the builtin min with a constant bound is a clamp by
// construction.
func GoodMin(n int) []byte {
	return make([]byte, min(n, maxRecord))
}

// GoodConst: constants are trivially bounded.
func GoodConst() []byte {
	return make([]byte, 64)
}

// GoodArithmetic: arithmetic over constants and clamped leaves is fine.
func GoodArithmetic(count int) []uint64 {
	if count > maxRecord {
		count = maxRecord
	}
	return make([]uint64, 8*count)
}

// AllowedCrossFunction: the container header validated n before this
// helper was called; the analyzer cannot see that, so the escape hatch
// documents it.
//
//bf:allow boundedalloc n validated against the section count by the caller
func AllowedCrossFunction(n int) []byte {
	return make([]byte, n)
}

var _ = AllowedCrossFunction
