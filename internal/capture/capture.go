// Package capture abstracts where frames come from, so the pump loop
// (internal/pump: the bfwall daemon's, and bfreplay's) is identical whether
// it faces a real NIC or a replayed trace.
//
// A Source delivers frames in batches into a ring of Frames the caller
// allocates once and reuses for the life of the pump, keeping the hot
// loop at zero allocations per frame. A source either fills a slot —
// copies the frame into the slot's own buffer — or aliases: it points
// the slot's Data at memory the source owns, read-only and valid until
// that ring is next passed to ReadBatch. Replay aliases: it walks a pcap
// capture held in memory (optionally looping it to synthesize arbitrarily
// long runs from a short trace) and every frame it hands out is a slice of
// that trace. So does Loopback, an in-memory queue for tests and demos. The
// AF_PACKET backend that binds a real interface fills; it lives behind
// the "afpacket" build tag (Linux only), and hermetic builds and CI never
// compile it.
//
// Timestamps are offsets on the source's own clock: a replayed trace
// carries its recorded virtual time (so filters rotate exactly as they
// would have live), and the AF_PACKET source stamps frames with the
// elapsed wall time since it opened. Either way the pump downstream is
// deterministic given the frame stream.
package capture

import (
	"time"

	"bitmapfilter/internal/pcap"
)

// Frame is one captured frame. Data points either into the ring slot's
// own buffer or into memory the source owns; either way it is valid until
// the ring it was delivered into is next passed to ReadBatch, and a
// consumer must not write through it.
type Frame struct {
	// Time is the capture timestamp as an offset on the source's clock.
	Time time.Duration
	// Data holds the captured bytes.
	Data []byte
	// OrigLen is the frame's length on the wire, which exceeds len(Data)
	// when the capture truncated it (snapshot length, small ring buffer).
	OrigLen int
}

// Truncated reports whether the frame was captured short.
func (f Frame) Truncated() bool { return f.OrigLen > len(f.Data) }

// Source yields batches of captured frames.
type Source interface {
	// ReadBatch delivers up to len(frames) frames and returns how many.
	// It blocks until at least one frame is available; n == 0 is returned
	// only with a non-nil error, io.EOF meaning the source is exhausted
	// (a finite trace fully replayed, or the source closed). n > 0 may
	// come with an error too: those frames arrived intact before it.
	//
	// Each delivered entry is set in one of two ways. A filling source
	// copies the frame into the entry's own buffer, Data[:0], reusing its
	// capacity when it suffices and allocating when it does not (a bare
	// make([]Frame, n) is a valid ring: its slots grow on first use). An
	// aliasing source replaces Data with a slice of memory the source owns
	// — a replayed trace, later a mapped receive ring — cut with cap ==
	// len, so that an append to it reallocates rather than running on
	// into whatever the source keeps behind the frame. Either way Data is
	// read-only to the caller. An aliasing source may also load from its
	// memory ahead of the frames it is about to deliver — Replay touches
	// the span a batch will cover before it walks it, so that the misses
	// overlap — which no caller can observe: it moves and writes nothing.
	//
	// A frame lives as long as its ring: Data is valid until the ring it
	// was delivered into is next passed to ReadBatch, however many other
	// rings this source fills in between. A caller with several rings may
	// therefore hold one batch's frames while the next batch is read
	// (bfwall's workers do); calls to ReadBatch themselves are still one
	// at a time. A filling source honours this by writing only into the
	// slot it is handed, an aliasing source by never rewriting memory it
	// has handed out.
	//
	// An aliased entry has no buffer of its own any more: Data[:0] is the
	// source's memory. A ring an aliasing source has delivered into must
	// therefore never be handed to a filling source, which would write
	// its frames over the first source's; give that one a ring of its
	// own. Copying a Frame's bytes elsewhere (resilience.Buffer does) is
	// always fine.
	ReadBatch(frames []Frame) (int, error)
	// Close releases the source. Blocked ReadBatch calls return. Close
	// is idempotent and may be called from a goroutine other than the
	// reader (a signal handler interrupting the pump).
	Close() error
}

// DefaultSnapLen is the per-frame buffer capacity NewRing uses when the
// caller passes snapLen <= 0: a full Ethernet frame.
const DefaultSnapLen = 1 << 16

// NewRing allocates n reusable frame buffers for ReadBatch. Every Data
// slice has capacity snapLen; a filling source slices it down to each
// frame's captured length without reallocating, an aliasing source never
// touches it (the pages stay unmapped), so snapLen bounds and truncates
// live capture only — a replayed frame is delivered whole. A ring need not
// come from here: a filling source grows a slot it finds too short, so a
// caller that cannot say how its rings will be filled (bfwall's pump)
// starts them empty and pays for buffers only when a source fills them.
// snapLen is capped at pcap.MaxRecordLen: no frame is longer than the
// longest record a capture may hold.
func NewRing(n, snapLen int) []Frame {
	switch {
	case snapLen <= 0:
		snapLen = DefaultSnapLen
	case snapLen > pcap.MaxRecordLen:
		snapLen = pcap.MaxRecordLen
	}
	ring := make([]Frame, n) //bf:allow boundedalloc n is the operator's ring size (-queue, -batch), set in configuration, never read from a frame
	for i := range ring {
		ring[i].Data = make([]byte, 0, snapLen)
	}
	return ring
}
