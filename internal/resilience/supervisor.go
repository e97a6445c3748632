package resilience

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"bitmapfilter/internal/capture"
)

// The supervisor's retry policy.
const (
	// maxConsecutiveFailures is the give-up bound: this many failures
	// (reads or reopens) without one successful read in between, and
	// ReadBatch returns ErrExhausted.
	maxConsecutiveFailures = 16
	// reopenAfter is how many consecutive transient errors one source may
	// return before the supervisor closes it and asks the factory for a
	// fresh one.
	reopenAfter = 3
	// baseBackoff is the first retry delay; it doubles per consecutive
	// failure up to maxBackoff.
	baseBackoff = 5 * time.Millisecond
	// maxBackoff caps the exponential backoff.
	maxBackoff = 2 * time.Second
)

// ErrExhausted is returned (wrapped, with the last source error) when
// the consecutive-failure budget runs out: the source kept failing with
// "transient" errors and never delivered a frame between them. The
// daemon treats it like a fatal error — better a clean, alertable exit
// than an invisible retry loop forever.
var ErrExhausted = errors.New("resilience: source failure budget exhausted")

// ErrNoFactory is returned by NewSupervisor when Config.Open is nil.
var ErrNoFactory = errors.New("resilience: config needs an Open factory")

// SupervisorConfig parameterizes a Supervisor.
type SupervisorConfig struct {
	// Open creates (or re-creates) the underlying source. Required. It
	// is called lazily on the first ReadBatch and again after the
	// supervisor decides a source is broken (reopenAfter consecutive
	// transient errors), so it must return a fresh, independent source
	// each call — e.g. a new Replay over the same trace bytes, or a
	// re-bound AF_PACKET socket — and the same kind every call: the
	// caller's ring passes from each source to the next, and one that an
	// aliasing source used must not reach a filling one (capture.Source).
	Open func() (capture.Source, error)
	// Probe, when set, is the capture loop's liveness signal: idle exactly
	// while the supervisor is inside the underlying source's ReadBatch —
	// a quiet link parks there, and an idle link is not a stall — and
	// beating on every read that delivers. A read that fails does not
	// count as progress, so a source that fails without end stalls it.
	Probe *Probe
	// Logf, when set, receives one line per classified failure,
	// reopen, and give-up.
	Logf func(format string, args ...any)
}

// SupervisorStats is a point-in-time view of the supervisor's counters
// for metrics export. All fields are cumulative.
type SupervisorStats struct {
	// Reads counts successful ReadBatch calls; Frames the frames they
	// delivered.
	Reads, Frames uint64
	// TransientErrors counts source errors classified transient.
	TransientErrors uint64
	// Reopens counts successful factory reopens after the initial open;
	// ReopenFailures counts factory calls that themselves failed.
	Reopens, ReopenFailures uint64
	// FatalErrors counts errors classified fatal (the read that
	// returned one also ended the supervisor).
	FatalErrors uint64
	// Backoffs counts backoff sleeps; BackoffTotal sums their
	// requested durations (bounded-backoff assertions divide these).
	Backoffs     uint64
	BackoffTotal time.Duration
	// LastError describes the most recent classified failure ("" if
	// none yet).
	LastError string
}

// Supervisor wraps a capture.Source factory with retry, reopen and
// classification so the pump loop above it only ever sees frames,
// io.EOF, or an error genuinely worth dying for. It implements
// capture.Source. ReadBatch must be called from one goroutine at a
// time; Close may race it from another (a signal handler), exactly like
// the sources it wraps.
type Supervisor struct {
	cfg SupervisorConfig
	// wake is the backoff's timer: time.After, or a test's channel.
	wake func(time.Duration) <-chan time.Time

	mu  sync.Mutex     // guards src against Close racing reopen
	src capture.Source //bf:guardedby mu

	closed   atomic.Bool
	stopOnce sync.Once
	stop     chan struct{} // closed by Close; wakes the backoff sleep

	// Reader-goroutine state (no locking needed).
	opened      bool // first Open attempted
	consecutive int  // failures since the last successful read
	srcErrs     int  // consecutive transient errors on the current source

	reads, frames, transient, reopens, reopenFails, fatals atomic.Uint64
	backoffs                                               atomic.Uint64
	backoffTotal                                           atomic.Int64 // ns
	lastErr                                                atomic.Pointer[string]
}

var _ capture.Source = (*Supervisor)(nil)

// NewSupervisor validates cfg and returns a supervisor. The factory is
// not called until the first ReadBatch.
func NewSupervisor(cfg SupervisorConfig) (*Supervisor, error) {
	if cfg.Open == nil {
		return nil, ErrNoFactory
	}
	return &Supervisor{
		cfg:  cfg,
		wake: time.After,
		stop: make(chan struct{}),
	}, nil
}

// ReadBatch implements capture.Source. The happy path is a straight
// passthrough to the underlying source (one uncontended lock to load it,
// no allocations); failures are classified, retried with exponential
// backoff, and survived by reopening through the factory until the
// consecutive failure budget runs out.
func (s *Supervisor) ReadBatch(frames []capture.Frame) (int, error) {
	for {
		src := s.current()
		if src == nil {
			// Before the first open, after a reopen decision, or after
			// Close, which reopen reports as io.EOF.
			if err := s.reopen(); err != nil {
				return 0, err
			}
			continue
		}
		n, err := s.readParked(src, frames)
		if err == nil {
			s.noteSuccess(n)
			return n, nil
		}
		class := Classify(err)
		switch class {
		case ClassFatal:
			s.fatals.Add(1)
			s.setLastErr(err)
			s.logf("source error (fatal): %v", err)
			s.closeSrc()
			return 0, fmt.Errorf("resilience: fatal source error: %w", err)
		case ClassTransient:
			s.transient.Add(1)
			s.setLastErr(err)
			s.logf("source error (transient; %d frames ahead of it, %d failures in a row before it): %v", n, s.consecutive, err)
		}
		if n > 0 {
			// Frames that arrived intact ahead of a non-fatal error (a
			// replay torn mid-batch has up to a ring of them) are a
			// successful read: hand them on now, for a retry would
			// overwrite the ring. An error that persists meets the next
			// call with n == 0.
			s.noteSuccess(n)
			return n, nil
		}
		if class == ClassEOF {
			return 0, io.EOF
		}
		s.consecutive++
		s.srcErrs++
		if s.consecutive >= maxConsecutiveFailures {
			s.closeSrc()
			return 0, fmt.Errorf("%w (%d consecutive failures, last: %v)", ErrExhausted, s.consecutive, err)
		}
		if s.srcErrs >= reopenAfter {
			// The source keeps failing: stop trusting it. The next loop
			// iteration reopens through the factory.
			s.closeSrc()
		}
		if !s.backoff() {
			return 0, io.EOF // closed during backoff
		}
	}
}

// readParked is src.ReadBatch with the probe idle inside it. Leaving a
// read that delivered restarts the stall window (SetIdle(false) beats);
// leaving one that failed does not.
func (s *Supervisor) readParked(src capture.Source, frames []capture.Frame) (int, error) {
	p := s.cfg.Probe
	if p == nil {
		return src.ReadBatch(frames)
	}
	p.SetIdle(true)
	n, err := src.ReadBatch(frames)
	if n > 0 || err == nil {
		p.SetIdle(false)
	} else {
		p.idle.Store(false)
	}
	return n, err
}

// reopen asks the factory for a fresh source, retrying with backoff
// inside the same consecutive-failure budget as read errors.
func (s *Supervisor) reopen() error {
	for {
		if s.closed.Load() {
			return io.EOF
		}
		src, err := s.cfg.Open()
		if err == nil {
			s.install(src)
			s.srcErrs = 0
			if s.opened {
				s.reopens.Add(1)
				s.logf("source reopened")
			}
			s.opened = true
			return nil
		}
		s.setLastErr(err)
		if Classify(err) == ClassFatal {
			s.logf("open failed (fatal): %v", err)
			return fmt.Errorf("resilience: fatal open error: %w", err)
		}
		s.reopenFails.Add(1)
		s.consecutive++
		s.logf("open failed (transient, %d consecutive): %v", s.consecutive, err)
		if s.consecutive >= maxConsecutiveFailures {
			return fmt.Errorf("%w (%d consecutive failures, last: %v)", ErrExhausted, s.consecutive, err)
		}
		if !s.backoff() {
			return io.EOF
		}
	}
}

// noteSuccess resets the failure budget and backoff ladder after a
// delivered batch.
func (s *Supervisor) noteSuccess(n int) {
	s.consecutive = 0
	s.srcErrs = 0
	s.reads.Add(1)
	s.frames.Add(uint64(n))
	if s.cfg.Probe != nil {
		s.cfg.Probe.Beat()
	}
}

// backoff sleeps the exponential delay for the current
// consecutive-failure count: doubling from the base, capped. It returns
// false if the supervisor was closed before or while sleeping.
func (s *Supervisor) backoff() bool {
	d := min(baseBackoff<<uint(min(s.consecutive-1, 20)), maxBackoff)
	s.backoffs.Add(1)
	s.backoffTotal.Add(int64(d))
	select {
	case <-s.stop:
		return false
	case <-s.wake(d):
		return true
	}
}

// current returns the live underlying source (nil before the first open
// and after a reopen decision).
func (s *Supervisor) current() capture.Source {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src
}

// install publishes a fresh source, unless Close won the race — then
// the new source is closed immediately.
func (s *Supervisor) install(src capture.Source) {
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		src.Close()
		return
	}
	s.src = src
	s.mu.Unlock()
}

// closeSrc closes and forgets the current source.
func (s *Supervisor) closeSrc() {
	s.mu.Lock()
	src := s.src
	s.src = nil
	s.mu.Unlock()
	if src != nil {
		src.Close()
	}
}

// Close implements capture.Source: idempotent, callable from any
// goroutine. The reader wakes from a blocked read (the underlying
// source's Close contract) or from a backoff sleep and returns io.EOF.
func (s *Supervisor) Close() error {
	s.closed.Store(true)
	s.stopOnce.Do(func() { close(s.stop) })
	s.closeSrc()
	return nil
}

func (s *Supervisor) setLastErr(err error) {
	msg := err.Error()
	s.lastErr.Store(&msg)
}

func (s *Supervisor) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Stats returns a copy of the counters. Safe to call concurrently with
// the reader.
func (s *Supervisor) Stats() SupervisorStats {
	var lastErr string
	if p := s.lastErr.Load(); p != nil {
		lastErr = *p
	}
	return SupervisorStats{
		Reads:           s.reads.Load(),
		Frames:          s.frames.Load(),
		TransientErrors: s.transient.Load(),
		Reopens:         s.reopens.Load(),
		ReopenFailures:  s.reopenFails.Load(),
		FatalErrors:     s.fatals.Load(),
		Backoffs:        s.backoffs.Load(),
		BackoffTotal:    time.Duration(s.backoffTotal.Load()),
		LastError:       lastErr,
	}
}
