// Package pcap reads and writes the classic libpcap capture file format so
// that traces produced by the traffic and attack generators can round-trip
// to disk and into standard tools (tcpdump, Wireshark). Only the features
// the simulator needs are implemented: Ethernet link type, microsecond or
// nanosecond timestamps, both byte orders on read.
//
// There is one way to read: a Scanner walks a capture that is already in
// memory and returns records that point into it, which is what a replay at
// line rate wants and all that any caller needs — a capture has to fit in
// memory. Captures are untrusted input: no length read from one sizes a
// slice before it has been checked against what is really there
// (TestScannerWalk, FuzzScanner).
package pcap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"time"
)

// File format constants.
const (
	magicMicro = 0xa1b2c3d4
	magicNano  = 0xa1b23c4d

	versionMajor = 2
	versionMinor = 4

	// LinkTypeEthernet is the only link type the simulator produces.
	LinkTypeEthernet = 1

	globalHeaderLen = 24
	recordHeaderLen = 16

	// DefaultSnapLen is the snapshot length written into new files; it
	// comfortably exceeds any simulated frame.
	DefaultSnapLen = 65535

	// MaxRecordLen caps a single record's captured length no matter what
	// snapLen the global header claims: the header is part of the
	// untrusted input, and no Ethernet frame is a MiB long. (A record must
	// also fit in what is left of the capture; nothing is allocated for
	// it.)
	MaxRecordLen = 1 << 20
)

// Errors matchable with errors.Is.
var (
	ErrBadMagic   = errors.New("pcap: bad magic number")
	ErrBadVersion = errors.New("pcap: unsupported version")
	ErrSnapLen    = errors.New("pcap: frame exceeds snapshot length")
	// ErrTimestamp is returned by WriteRecord for times the record header
	// cannot represent: negative offsets, and seconds past the 32-bit
	// field (which used to wrap into garbage timestamps).
	ErrTimestamp = errors.New("pcap: timestamp not representable")
	// ErrOrigLen is returned by WriteRecord when a record claims an
	// original wire length smaller than the bytes it actually carries.
	ErrOrigLen = errors.New("pcap: original length smaller than captured data")
)

// Record is one captured frame with its timestamp. Time is an offset on the
// simulation clock (the epoch is arbitrary).
type Record struct {
	Time time.Duration
	Data []byte
	// OrigLen is the frame's original wire length. Captures taken with a
	// snapshot length shorter than the frame store only the first snapLen
	// bytes but record the true length here; bandwidth accounting must use
	// OrigLen, not len(Data). On write, zero means len(Data).
	OrigLen int
}

// Writer emits a pcap stream. Construct it with NewWriter, which writes the
// global header immediately.
type Writer struct {
	w       io.Writer
	snapLen uint32
	scratch [recordHeaderLen]byte
}

// NewWriter writes a little-endian, microsecond-resolution pcap global
// header to w and returns a Writer for appending records.
func NewWriter(w io.Writer) (*Writer, error) {
	var hdr [globalHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], magicMicro)
	binary.LittleEndian.PutUint16(hdr[4:6], versionMajor)
	binary.LittleEndian.PutUint16(hdr[6:8], versionMinor)
	// thiszone and sigfigs stay zero.
	binary.LittleEndian.PutUint32(hdr[16:20], DefaultSnapLen)
	binary.LittleEndian.PutUint32(hdr[20:24], LinkTypeEthernet)
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: write global header: %w", err)
	}
	return &Writer{w: w, snapLen: DefaultSnapLen}, nil
}

// WriteRecord appends one frame to the stream. rec.Time must fit the
// 32-bit seconds field (0 .. 2^32-1 s); rec.OrigLen of zero means the
// frame was captured whole (origLen = len(Data)).
func (w *Writer) WriteRecord(rec Record) error {
	if len(rec.Data) > int(w.snapLen) {
		return fmt.Errorf("%w: %d > %d", ErrSnapLen, len(rec.Data), w.snapLen)
	}
	usec := rec.Time.Microseconds()
	sec := usec / 1e6
	// The header's seconds field is 32 bits; uint32() used to wrap both a
	// negative offset and an overflowing one into a plausible-looking
	// garbage timestamp.
	if usec < 0 || sec > 0xffffffff {
		return fmt.Errorf("%w: %v", ErrTimestamp, rec.Time)
	}
	orig := rec.OrigLen
	if orig == 0 {
		orig = len(rec.Data)
	}
	if orig < len(rec.Data) {
		return fmt.Errorf("%w: origLen %d < %d captured bytes", ErrOrigLen, orig, len(rec.Data))
	}
	if orig > 0xffffffff {
		return fmt.Errorf("%w: origLen %d overflows the 32-bit field", ErrOrigLen, orig)
	}
	binary.LittleEndian.PutUint32(w.scratch[0:4], uint32(sec))
	binary.LittleEndian.PutUint32(w.scratch[4:8], uint32(usec%1e6))
	binary.LittleEndian.PutUint32(w.scratch[8:12], uint32(len(rec.Data)))
	binary.LittleEndian.PutUint32(w.scratch[12:16], uint32(orig))
	if _, err := w.w.Write(w.scratch[:]); err != nil {
		return fmt.Errorf("pcap: write record header: %w", err)
	}
	if _, err := w.w.Write(rec.Data); err != nil {
		return fmt.Errorf("pcap: write record data: %w", err)
	}
	return nil
}

// layout is what a capture's global header fixes for every record after
// it.
type layout struct {
	// swap is set for a big-endian file: fields are loaded little-endian
	// and byte-swapped, which keeps the per-record path free of an
	// interface call per field.
	swap bool
	// tick is the unit of a record's fraction field.
	tick    time.Duration
	snapLen uint32
}

// parseGlobalHeader validates the 24-byte global header. Both byte orders
// and both timestamp resolutions are accepted.
func parseGlobalHeader(hdr *[globalHeaderLen]byte) (layout, error) {
	l := layout{tick: time.Microsecond}
	magic := binary.LittleEndian.Uint32(hdr[0:4])
	switch magic {
	case magicMicro:
	case magicNano:
		l.tick = time.Nanosecond
	case bits.ReverseBytes32(magicMicro):
		l.swap = true
	case bits.ReverseBytes32(magicNano):
		l.swap, l.tick = true, time.Nanosecond
	default:
		return l, fmt.Errorf("%w: %#08x", ErrBadMagic, magic)
	}
	major, minor := binary.LittleEndian.Uint16(hdr[4:6]), binary.LittleEndian.Uint16(hdr[6:8])
	if l.swap {
		major, minor = bits.ReverseBytes16(major), bits.ReverseBytes16(minor)
	}
	if major != versionMajor {
		return l, fmt.Errorf("%w: %d.%d", ErrBadVersion, major, minor)
	}
	l.snapLen = l.u32(hdr[16:20])
	return l, nil
}

// u32 loads one header field in the file's byte order.
func (l *layout) u32(b []byte) uint32 {
	v := binary.LittleEndian.Uint32(b)
	if l.swap {
		v = bits.ReverseBytes32(v)
	}
	return v
}

// record decodes one record header and applies every check that needs
// only the header: the captured length may exceed neither the snapLen the
// file declares nor MaxRecordLen.
func (l *layout) record(h *[recordHeaderLen]byte) (t time.Duration, incl, orig int, err error) {
	n := l.u32(h[8:12])
	if n > l.snapLen || n > MaxRecordLen {
		return 0, 0, 0, errRecordLen(n)
	}
	t = time.Duration(l.u32(h[0:4]))*time.Second + time.Duration(l.u32(h[4:8]))*l.tick
	return t, int(n), int(l.u32(h[12:16])), nil
}

// A record cut short by the end of the capture. Built once: the record walk
// constructs no error on its own.
var (
	errTornHeader = fmt.Errorf("pcap: read record header: %w", io.ErrUnexpectedEOF)
	errTornData   = fmt.Errorf("pcap: read record data: %w", io.ErrUnexpectedEOF)
)

func errRecordLen(incl uint32) error {
	return fmt.Errorf("%w: record claims %d bytes", ErrSnapLen, incl)
}

// Scanner walks the records of a capture held in memory. Each Record's Data
// is a slice of the capture itself, so a record costs a handful of loads
// and no copy. The capture must not change while the Scanner or any Record
// it returned is in use.
type Scanner struct {
	layout
	data []byte
	// off is the offset of the next record header; len(data) once the
	// walk has ended, cleanly or not.
	off int
}

// NewScanner validates the global header at the start of data and returns
// a Scanner positioned at the first record.
func NewScanner(data []byte) (*Scanner, error) {
	if len(data) < globalHeaderLen {
		// What io.ReadFull says of a stream this short.
		cause := io.ErrUnexpectedEOF
		if len(data) == 0 {
			cause = io.EOF
		}
		return nil, fmt.Errorf("pcap: read global header: %w", cause)
	}
	l, err := parseGlobalHeader((*[globalHeaderLen]byte)(data))
	if err != nil {
		return nil, err
	}
	return &Scanner{layout: l, data: data, off: globalHeaderLen}, nil
}

// Rewind repositions the Scanner at the first record.
func (s *Scanner) Rewind() { s.off = globalHeaderLen }

// Offset is where in the capture the next record starts: the difference
// across a run of Next calls is the bytes they covered, headers included.
func (s *Scanner) Offset() int { return s.off }

// cacheLine is the stride of Touch: the line size of every x86-64 and most
// arm64 cores. A larger line only makes every other load redundant.
const cacheLine = 64

// Touch loads one byte of every cache line of the next n bytes of the
// capture, or of what is left of it, and moves nothing: the walk after it
// is the walk without it. Next is a pointer chase — where record i+1 starts
// is a field of record i — so over a capture that is not in cache it pays
// one dependent miss per record; these loads depend on nothing, so their
// misses overlap, and the chase behind them runs in cache. It pays off when
// the caller's next Next calls and their consumer read every line of those
// n bytes anyway (see capture.Replay for the rule). The sum of the bytes
// loaded is returned so that the loads are not dead code; it means nothing.
//
//bf:hotpath
func (s *Scanner) Touch(n int) (sum byte) {
	rest := s.data[s.off:]
	if n < len(rest) {
		rest = rest[:max(n, 0)]
	}
	for i := 0; i < len(rest); i += cacheLine {
		sum += rest[i]
	}
	return sum
}

// Next stores the next record in *rec, or returns io.EOF at a clean end of
// the capture and leaves *rec alone, as it does on every error. It fills
// the caller's Record rather than returning one because the walk is the
// replay hot path: a returned struct is spilled and copied once more per
// record, which BenchmarkReplayReadBatch prices at 16 against 9 ns.
//
// rec.Data aliases the capture and is cut with cap == len, so appending
// to it reallocates rather than running on into the next record's header.
//
// A header or body cut short by the end of the buffer is
// io.ErrUnexpectedEOF and an over-long record ErrSnapLen. After either the
// Scanner is exhausted and returns io.EOF: where
// the next record would start is exactly what a bad length leaves
// unknown, and walking on would decode payload bytes as headers.
//
//bf:hotpath
func (s *Scanner) Next(rec *Record) error {
	rest := s.data[s.off:]
	if len(rest) < recordHeaderLen {
		s.off = len(s.data)
		if len(rest) == 0 {
			return io.EOF
		}
		return errTornHeader
	}
	t, incl, orig, err := s.record((*[recordHeaderLen]byte)(rest))
	if err != nil {
		s.off = len(s.data)
		return err
	}
	body := rest[recordHeaderLen:]
	if incl > len(body) {
		s.off = len(s.data)
		return errTornData
	}
	s.off += recordHeaderLen + incl
	rec.Time, rec.Data, rec.OrigLen = t, body[:incl:incl], orig
	return nil
}
