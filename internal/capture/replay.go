package capture

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"bitmapfilter/internal/pcap"
)

// Replay is a Source that walks a pcap capture held in memory. It is an
// aliasing source (see Source): every Frame.Data it hands out is a slice
// of the trace itself, so a frame costs the parse of its 16-byte record
// header and no copy. With loops > 1 the trace is replayed back-to-back:
// timestamps of later passes are shifted so the stream's clock is
// monotonic, letting a short recorded burst stand in for an arbitrarily
// long live run (the 500K pps saturation benchmark replays one generated
// second many times over).
type Replay struct {
	sc     *pcap.Scanner
	loops  int // passes remaining, including the current one
	offset time.Duration
	newest time.Duration // highest raw timestamp seen this pass
	read   bool          // any record read this pass
	closed atomic.Bool   // set by Close, possibly from another goroutine
}

// NewReplayBytes replays a capture held in memory. loops is the total
// number of passes over it; values below 1 mean a single pass. The
// Replay keeps trace and hands out slices of it, so the caller must
// leave it unchanged for the life of the Replay; any number of Replays
// may share one trace.
func NewReplayBytes(trace []byte, loops int) (*Replay, error) {
	sc, err := pcap.NewScanner(trace)
	if err != nil {
		return nil, fmt.Errorf("capture: %w", err)
	}
	return &Replay{sc: sc, loops: max(loops, 1)}, nil
}

// NewReplay reads the rest of src into memory and replays it: a loader
// in front of NewReplayBytes for callers that hold a stream, not bytes.
func NewReplay(src io.ReadSeeker, loops int) (*Replay, error) {
	trace, err := io.ReadAll(src)
	if err != nil {
		return nil, fmt.Errorf("capture: read trace: %w", err)
	}
	return NewReplayBytes(trace, loops)
}

// rewind starts the next pass. The scanner goes back to the first record,
// an offset reset; the pass restarts at its own recorded base, so it is
// shifted past the newest timestamp of the pass just ended (not the last
// one: a multi-queue capture is not sorted), plus a tick so equality
// never happens. That keeps the clock monotonic across the seam.
func (r *Replay) rewind() {
	r.sc.Rewind()
	r.offset += r.newest + time.Microsecond
	r.newest, r.read = 0, false
}

// ReadBatch implements Source. Frames come out with their recorded
// timestamps shifted by the accumulated loop offset, and with Data
// pointing into the trace: the slot's own buffer is left unused.
//
//bf:hotpath
func (r *Replay) ReadBatch(frames []Frame) (int, error) {
	// Once per batch, not per record: a concurrent Close (the daemon's
	// signal handler) ends the replay no later than one batch on.
	if r.closed.Load() {
		return 0, io.EOF
	}
	n := 0
	for n < len(frames) {
		// Frame and pcap.Record are field for field the same struct (the
		// conversion stops compiling if they drift), so the scanner fills
		// the ring slot in place.
		f := &frames[n]
		if err := r.sc.Next((*pcap.Record)(f)); err != nil {
			if !errors.Is(err, io.EOF) {
				return n, readError(err)
			}
			// End of a pass. An empty trace must not loop forever.
			if r.loops > 1 && r.read {
				r.loops--
				r.rewind()
				continue
			}
			if n == 0 {
				return 0, io.EOF
			}
			return n, nil
		}
		r.read = true
		r.newest = max(r.newest, f.Time)
		f.Time += r.offset
		if f.OrigLen == 0 {
			f.OrigLen = len(f.Data)
		}
		n++
	}
	return n, nil
}

// readError keeps error construction out of ReadBatch.
func readError(err error) error { return fmt.Errorf("capture: %w", err) }

// Close implements Source. It is idempotent and safe to call from a
// goroutine other than the reader: ReadBatch observes the flag at its
// next call and returns io.EOF.
func (r *Replay) Close() error {
	r.closed.Store(true)
	return nil
}
