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

	// ahead is how much of the trace ReadBatch touches before it walks: the
	// bytes the previous batch covered of the pass it ended in, or 0 when
	// that says nothing about this one (see ReadBatch). warm only keeps the
	// touch's loads alive.
	ahead int
	warm  byte
}

// touchMaxRecord is the largest a batch's records (header included) may
// have been on average for the next batch to be touched ahead of its walk:
// two cache lines. It is an average over the batch, not a bound on each
// record. Where every record is that small every line of the span holds
// bytes the walk or packet.DecodeInto loads anyway — the record header,
// then Ethernet, IP and transport headers, 70 bytes on — and the touch
// fetches nothing that would not have been fetched; a mixed batch inside
// the average still has the payload lines of its larger frames pulled in.
// Past it most lines are payload the header-only decoder never reads:
// DESIGN.md §11 has what BenchmarkReplayReadBatch/mtu reads for a touch
// that ignores the rule.
const touchMaxRecord = 128

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
// A caller with a file wants os.ReadFile and NewReplayBytes: io.ReadAll
// grows by reallocation and peaks at about twice the capture.
func NewReplay(src io.Reader, loops int) (*Replay, error) {
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
	// Touch, then walk. The walk is a pointer chase (pcap.Scanner.Touch) and
	// over a trace that is not in cache it takes one miss per frame in
	// series, on the one core whose turn at the source it is. Only a full
	// batch of small records predicts the next: a short one — an error, the
	// end of the last pass — leaves ahead at 0. A batch that crosses the
	// seam is touched up to the end of the data, where Touch clamps, and
	// predicts from its records past the seam alone (first on).
	r.warm += r.sc.Touch(r.ahead)
	r.ahead = 0
	n, first, start := 0, 0, r.sc.Offset()
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
				first, start = n, r.sc.Offset()
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
	if span := r.sc.Offset() - start; span <= (n-first)*touchMaxRecord {
		r.ahead = span
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
