// Package wire holds the retired taint analyzer's fixture, now a
// boundedalloc golden: lengths from wire reads, wire bytes, records,
// decoded fields and JSON config. A flow laundered through a helper is
// flagged inside the helper, which allocates whatever it is passed.
package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"strings"
)

const maxRecord = 1 << 20

// Bad is the classic one-hop flow.
func Bad(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	buf := make([]byte, n) // want "make size n is not clamped"
	_, err := io.ReadFull(r, buf)
	return buf, err
}

// Good clamps the wire value before allocating.
func Good(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxRecord {
		return nil, io.ErrUnexpectedEOF
	}
	buf := make([]byte, n)
	_, err := io.ReadFull(r, buf)
	return buf, err
}

// alloc is an unvalidating helper: it sizes an allocation with whatever
// its caller passes, so it is the function that must clamp.
func alloc(n uint32) []byte {
	return make([]byte, n) // want "make size n is not clamped"
}

// BadCall launders the wire length through alloc.
func BadCall(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	return alloc(n), nil
}

// allocChecked validates its parameter where it allocates.
func allocChecked(n uint32) []byte {
	if n > maxRecord {
		return nil
	}
	return make([]byte, n)
}

// GoodCall delegates the clamp to a visibly-validating helper.
func GoodCall(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	return allocChecked(n), nil
}

// BadByte: a length computed from wire bytes.
func BadByte(data []byte) []byte {
	n := int(data[0])<<8 | int(data[1])
	return make([]byte, n) // want "make size n is not clamped"
}

// GoodMask: masking against a constant bounds the result by
// construction, and n holds nothing else.
func GoodMask(data []byte) []byte {
	n := int(data[0]) & 0x3f
	return make([]byte, n)
}

// BadMaskThenStore: a local is clamped only when every store to it is.
func BadMaskThenStore(data []byte) []byte {
	n := int(data[0]) & 0x3f
	n = int(data[1]) << 8
	return make([]byte, n) // want "make size n is not clamped"
}

// GoodModulus: x % const is bounded too.
func GoodModulus(data []byte) []byte {
	return make([]byte, int(data[0])%48)
}

// Record mirrors the pcap record struct: captured wire data.
type Record struct {
	CapLen uint32
	Data   []byte
}

func BadRecordLen(rec *Record) []byte {
	return make([]byte, rec.CapLen) // want "make size rec.CapLen is not clamped"
}

func GoodRecordLen(rec *Record) []byte {
	n := rec.CapLen
	if n > maxRecord {
		n = maxRecord
	}
	return make([]byte, n)
}

// header models the snapshot-header pattern: a length decoded in one
// method and consumed in another.
type header struct {
	count uint32
}

func (h *header) decode(b []byte) {
	h.count = binary.LittleEndian.Uint32(b)
}

func (h *header) BadFieldAlloc() []uint64 {
	return make([]uint64, h.count) // want "make size h.count is not clamped"
}

func (h *header) GoodFieldAlloc() []uint64 {
	n := h.count
	if n > maxRecord {
		n = maxRecord
	}
	return make([]uint64, n)
}

// frameConfig models tenant.ParseConfig: JSON-decoded values are
// attacker-shaped.
type frameConfig struct {
	Slots int `json:"slots"`
}

func BadJSON(raw []byte) ([]uint64, error) {
	var fc frameConfig
	if err := json.Unmarshal(raw, &fc); err != nil {
		return nil, err
	}
	return make([]uint64, fc.Slots), nil // want "make size fc.Slots is not clamped"
}

func GoodJSON(raw []byte) ([]uint64, error) {
	var fc frameConfig
	if err := json.Unmarshal(raw, &fc); err != nil {
		return nil, err
	}
	n := fc.Slots
	if n > maxRecord {
		return nil, io.ErrUnexpectedEOF
	}
	return make([]uint64, n), nil
}

// The other two sinks: a Repeat count and a Buffer.Grow size.
func BadRepeat(data []byte, s string) (string, []byte) {
	n := int(binary.BigEndian.Uint16(data))
	return strings.Repeat(s, n), bytes.Repeat(data, n) // want "Repeat count n is not clamped" "Repeat count n is not clamped"
}

func BadGrow(b *bytes.Buffer, data []byte) {
	b.Grow(int(binary.BigEndian.Uint32(data))) // want "Grow size binary.BigEndian.Uint32\\(data\\) is not clamped"
}

func GoodGrow(b *bytes.Buffer, data []byte) {
	n := int(binary.BigEndian.Uint32(data))
	if n > maxRecord {
		return
	}
	b.Grow(n)
	b.WriteString(strings.Repeat("x", min(n, 64)))
}

// AllowedCross: the container format validated n at the section table,
// which this helper cannot see; the escape hatch documents the contract.
//
//bf:allow boundedalloc n validated against the section directory by the container reader
func AllowedCross(r io.Reader) []byte {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil
	}
	n := binary.LittleEndian.Uint64(hdr[:])
	return make([]byte, n)
}

var _ = (*header).decode
