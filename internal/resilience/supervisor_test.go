package resilience

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"sync/atomic"
	"testing"
	"time"

	"bitmapfilter/internal/capture"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/pcap"
)

// --- injectable sources for the chaos harness -------------------------

// errTransient is an unrecognized error, which Classify defaults to
// transient.
var errTransient = errors.New("injected transient glitch")

// fillFrame stamps one synthetic frame into f.
func fillFrame(f *capture.Frame, seq int) {
	f.Time = time.Duration(seq+1) * time.Millisecond
	f.Data = append(f.Data[:0], byte(seq), byte(seq>>8), byte(seq>>16), 0xbf)
	f.OrigLen = len(f.Data)
}

// flakySource delivers `total` frames but returns err on every errEvery-th
// read, and fills at most perRead frames per call (a partial-read source
// when perRead < len(frames)).
type flakySource struct {
	total    int
	perRead  int
	errEvery int
	err      error

	reads     int
	delivered int
	closed    atomic.Bool
	closes    atomic.Int64
}

func (f *flakySource) ReadBatch(frames []capture.Frame) (int, error) {
	if f.closed.Load() {
		return 0, io.EOF
	}
	f.reads++
	if f.errEvery > 0 && f.reads%f.errEvery == 0 {
		return 0, f.err
	}
	if f.delivered >= f.total {
		return 0, io.EOF
	}
	n := len(frames)
	if f.perRead > 0 && n > f.perRead {
		n = f.perRead
	}
	if rem := f.total - f.delivered; n > rem {
		n = rem
	}
	for i := 0; i < n; i++ {
		fillFrame(&frames[i], f.delivered+i)
	}
	f.delivered += n
	return n, nil
}

func (f *flakySource) Close() error {
	f.closed.Store(true)
	f.closes.Add(1)
	return nil
}

// dyingSource delivers healthy frames and then fails persistently.
type dyingSource struct {
	healthy   int
	err       error
	delivered int
	closed    atomic.Bool
}

func (d *dyingSource) ReadBatch(frames []capture.Frame) (int, error) {
	if d.closed.Load() {
		return 0, io.EOF
	}
	if d.delivered >= d.healthy {
		return 0, d.err
	}
	n := 1
	fillFrame(&frames[0], d.delivered)
	d.delivered += n
	return n, nil
}

func (d *dyingSource) Close() error { d.closed.Store(true); return nil }

// stallingSource blocks in ReadBatch until released or closed — the
// "capture loop wedged in the kernel" injection.
type stallingSource struct {
	release chan struct{}
	closed  chan struct{}
	once    atomic.Bool
}

func newStallingSource() *stallingSource {
	return &stallingSource{release: make(chan struct{}), closed: make(chan struct{})}
}

func (s *stallingSource) ReadBatch(frames []capture.Frame) (int, error) {
	select {
	case <-s.release:
		fillFrame(&frames[0], 0)
		return 1, nil
	case <-s.closed:
		return 0, io.EOF
	}
}

func (s *stallingSource) Close() error {
	if s.once.CompareAndSwap(false, true) {
		close(s.closed)
	}
	return nil
}

// instantSleep records requested backoffs without sleeping, keeping the
// chaos runs wall-clock free.
type instantSleep struct {
	mu    chan struct{} // 1-token semaphore; tests are single-reader anyway
	slept []time.Duration
}

func newInstantSleep() *instantSleep {
	return &instantSleep{mu: make(chan struct{}, 1)}
}

func (s *instantSleep) sleep(d time.Duration) {
	s.mu <- struct{}{}
	s.slept = append(s.slept, d)
	<-s.mu
}

// mustSupervisor builds a supervisor over a fixed source with instant
// sleeps.
func mustSupervisor(t *testing.T, src capture.Source, mod func(*SupervisorConfig)) (*Supervisor, *instantSleep) {
	t.Helper()
	sl := newInstantSleep()
	cfg := SupervisorConfig{
		Open:  func() (capture.Source, error) { return src, nil },
		Sleep: sl.sleep,
	}
	if mod != nil {
		mod(&cfg)
	}
	sup, err := NewSupervisor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sup, sl
}

// drain reads the supervisor to EOF, returning frames delivered.
func drain(t *testing.T, src capture.Source) int {
	t.Helper()
	ring := capture.NewRing(8, 64)
	total := 0
	for {
		n, err := src.ReadBatch(ring)
		total += n
		if errors.Is(err, io.EOF) {
			return total
		}
		if err != nil {
			t.Fatalf("ReadBatch: %v", err)
		}
	}
}

// --- classification ---------------------------------------------------

// TestClassify pins the transient/fatal triage the supervisor applies,
// including errors as they actually surface from capture.Replay
// (wrapped with %w).
func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want Class
	}{
		{io.EOF, ClassEOF},
		{capture.ErrClosed, ClassEOF},
		{fmt.Errorf("capture: %w", io.ErrUnexpectedEOF), ClassTransient},
		{fmt.Errorf("capture: %w", pcap.ErrSnapLen), ClassTransient},
		{fmt.Errorf("capture: %w", pcap.ErrBadMagic), ClassFatal},
		{fmt.Errorf("capture: %w", pcap.ErrBadVersion), ClassFatal},
		{fs.ErrNotExist, ClassFatal},
		{fs.ErrPermission, ClassFatal},
		{errTransient, ClassTransient}, // unknown defaults to transient
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// pcapTrace is a capture of count identical frames, 1 ms apart.
func pcapTrace(t testing.TB, count int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := packet.Encode(packet.Packet{
		Time: time.Millisecond,
		Tuple: packet.Tuple{
			Src: packet.AddrFrom4(10, 0, 0, 1), Dst: packet.AddrFrom4(198, 51, 100, 1),
			SrcPort: 1024, DstPort: 80, Proto: packet.TCP,
		},
		Dir: packet.Outgoing, Length: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < count; i++ {
		if err := w.WriteRecord(pcap.Record{Time: time.Duration(i+1) * time.Millisecond, Data: frame}); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestClassifyRealReplayErrors drives a truncated and a corrupt pcap
// through capture.Replay and pins what the supervisor sees: truncation
// mid-record must classify transient (survivable), structural garbage at
// open must classify fatal.
func TestClassifyRealReplayErrors(t *testing.T) {
	trace := pcapTrace(t, 3)

	// Truncate the last record mid-payload.
	truncated := trace[:len(trace)-10]
	r, err := capture.NewReplay(bytes.NewReader(truncated), 1)
	if err != nil {
		t.Fatal(err)
	}
	ring := capture.NewRing(8, 2048)
	var readErr error
	got := 0
	for readErr == nil {
		var n int
		n, readErr = r.ReadBatch(ring)
		got += n
	}
	if got != 2 {
		t.Errorf("truncated trace delivered %d frames, want the 2 intact ones", got)
	}
	if Classify(readErr) != ClassTransient {
		t.Errorf("mid-stream truncation %v classified %v, want transient", readErr, Classify(readErr))
	}

	// Garbage at open: not a pcap at all.
	if _, err := capture.NewReplay(bytes.NewReader([]byte("this is definitely not a pcap capture file")), 1); err == nil {
		t.Error("garbage header accepted")
	} else if Classify(err) != ClassFatal {
		t.Errorf("bad magic %v classified %v, want fatal", err, Classify(err))
	}
}

// --- supervisor behavior ----------------------------------------------

func TestSupervisorPassthrough(t *testing.T) {
	src := &flakySource{total: 100, perRead: 7}
	sup, _ := mustSupervisor(t, src, nil)
	if got := drain(t, sup); got != 100 {
		t.Errorf("delivered %d frames, want 100", got)
	}
	st := sup.Stats()
	if st.Frames != 100 || st.TransientErrors != 0 || st.Reopens != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestSupervisorDeliversFramesAheadOfTransientError: a replay torn in its
// last record returns the intact frames of that batch together with the
// error. They are a successful read — the supervisor used to back off and
// retry over them, and the caller never saw a frame.
func TestSupervisorDeliversFramesAheadOfTransientError(t *testing.T) {
	const intact = 5
	trace := pcapTrace(t, intact+1)
	r, err := capture.NewReplayBytes(trace[:len(trace)-10], 1)
	if err != nil {
		t.Fatal(err)
	}
	sup, _ := mustSupervisor(t, r, nil)
	// drain's ring holds the whole trace: frames and error share a batch.
	if got := drain(t, sup); got != intact {
		t.Errorf("delivered %d frames, want the %d intact ones", got, intact)
	}
	if st := sup.Stats(); st.Frames != intact || st.TransientErrors != 1 {
		t.Errorf("stats = %+v, want %d frames and the torn record counted once", st, intact)
	}
}

// TestSupervisorReopensPersistentFailure: a source that dies for good
// must be replaced through the factory, and the stream continues on the
// replacement.
func TestSupervisorReopensPersistentFailure(t *testing.T) {
	opens := 0
	sl := newInstantSleep()
	sup, err := NewSupervisor(SupervisorConfig{
		Open: func() (capture.Source, error) {
			opens++
			if opens == 1 {
				return &dyingSource{healthy: 5, err: errTransient}, nil
			}
			return &flakySource{total: 10}, nil
		},
		ReopenAfter: 2,
		Sleep:       sl.sleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(t, sup); got != 15 {
		t.Errorf("delivered %d frames, want 5 + 10 across the reopen", got)
	}
	st := sup.Stats()
	if st.Reopens != 1 {
		t.Errorf("reopens = %d, want 1", st.Reopens)
	}
	if st.TransientErrors != 2 {
		t.Errorf("transient errors = %d, want 2 (ReopenAfter)", st.TransientErrors)
	}
	if opens != 2 {
		t.Errorf("factory called %d times, want 2", opens)
	}
}

// TestSupervisorFactoryFailuresBounded: a factory that cannot produce a
// working source must exhaust the budget, not loop forever.
func TestSupervisorFactoryFailuresBounded(t *testing.T) {
	opens := 0
	sl := newInstantSleep()
	sup, err := NewSupervisor(SupervisorConfig{
		Open:                   func() (capture.Source, error) { opens++; return nil, errTransient },
		MaxConsecutiveFailures: 5,
		Sleep:                  sl.sleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, rerr := sup.ReadBatch(capture.NewRing(1, 64))
	if !errors.Is(rerr, ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted", rerr)
	}
	if opens != 5 {
		t.Errorf("factory called %d times, want 5", opens)
	}
	if st := sup.Stats(); st.ReopenFailures != 5 {
		t.Errorf("reopen failures = %d, want 5", st.ReopenFailures)
	}
}

// TestSupervisorFatalOpenError: a fatal factory error (missing file)
// surfaces immediately, no retry loop.
func TestSupervisorFatalOpenError(t *testing.T) {
	opens := 0
	sup, err := NewSupervisor(SupervisorConfig{
		Open: func() (capture.Source, error) { opens++; return nil, fs.ErrNotExist },
	})
	if err != nil {
		t.Fatal(err)
	}
	_, rerr := sup.ReadBatch(capture.NewRing(1, 64))
	if rerr == nil || !errors.Is(rerr, fs.ErrNotExist) {
		t.Fatalf("err = %v, want fs.ErrNotExist", rerr)
	}
	if opens != 1 {
		t.Errorf("factory called %d times, want 1", opens)
	}
}

// TestSupervisorFatalReadError: fatal read errors end the stream with
// the underlying source closed.
func TestSupervisorFatalReadError(t *testing.T) {
	src := &dyingSource{healthy: 3, err: fmt.Errorf("capture: %w", pcap.ErrBadMagic)}
	sup, _ := mustSupervisor(t, src, nil)
	ring := capture.NewRing(8, 64)
	got := 0
	var rerr error
	for rerr == nil {
		var n int
		n, rerr = sup.ReadBatch(ring)
		got += n
	}
	if got != 3 {
		t.Errorf("delivered %d frames before the fatal error, want 3", got)
	}
	if !errors.Is(rerr, pcap.ErrBadMagic) {
		t.Errorf("err = %v, want wrapped ErrBadMagic", rerr)
	}
	if !src.closed.Load() {
		t.Error("underlying source not closed after fatal error")
	}
	if st := sup.Stats(); st.FatalErrors != 1 {
		t.Errorf("fatal errors = %d, want 1", st.FatalErrors)
	}
}

// TestSupervisorExhaustion: a persistently failing source with a factory
// that keeps handing the same broken source back must give up after the
// budget, with the backoff ladder visibly exponential and capped.
func TestSupervisorExhaustion(t *testing.T) {
	sl := newInstantSleep()
	sup, err := NewSupervisor(SupervisorConfig{
		Open:                   func() (capture.Source, error) { return &dyingSource{err: errTransient}, nil },
		MaxConsecutiveFailures: 10,
		ReopenAfter:            3,
		BaseBackoff:            time.Millisecond,
		MaxBackoff:             8 * time.Millisecond,
		Jitter:                 -1, // exact ladder
		Sleep:                  sl.sleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, rerr := sup.ReadBatch(capture.NewRing(1, 64))
	if !errors.Is(rerr, ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted", rerr)
	}
	if len(sl.slept) != 9 {
		t.Fatalf("backoffs = %d, want 9 (10 failures, no sleep after the last)", len(sl.slept))
	}
	want := []time.Duration{1, 2, 4, 8, 8, 8, 8, 8, 8} // ms, doubling then capped
	for i, d := range sl.slept {
		if d != want[i]*time.Millisecond {
			t.Errorf("backoff %d = %v, want %v", i, d, want[i]*time.Millisecond)
		}
	}
}

// TestSupervisorCloseDuringRead: Close from another goroutine unblocks a
// stalled source read and yields io.EOF.
func TestSupervisorCloseDuringRead(t *testing.T) {
	src := newStallingSource()
	sup, _ := mustSupervisor(t, src, nil)
	done := make(chan error, 1)
	go func() {
		_, err := sup.ReadBatch(capture.NewRing(1, 64))
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the reader park in the source
	if err := sup.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, io.EOF) {
			t.Errorf("read after Close = %v, want io.EOF", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reader did not observe Close")
	}
}

// TestSupervisorCloseDuringBackoff: the default interruptible sleep must
// wake on Close instead of serving out a long backoff.
func TestSupervisorCloseDuringBackoff(t *testing.T) {
	sup, err := NewSupervisor(SupervisorConfig{
		Open:        func() (capture.Source, error) { return &dyingSource{err: errTransient}, nil },
		BaseBackoff: time.Hour, // would hang without interruption
		MaxBackoff:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := sup.ReadBatch(capture.NewRing(1, 64))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // reader reaches the backoff sleep
	sup.Close()
	select {
	case err := <-done:
		if !errors.Is(err, io.EOF) {
			t.Errorf("read = %v, want io.EOF after Close", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not interrupt the backoff sleep")
	}
}

// TestSupervisorZeroAllocsSteadyState pins the passthrough contract: a
// healthy supervised read adds no allocations over the raw source.
func TestSupervisorZeroAllocsSteadyState(t *testing.T) {
	src := &flakySource{total: 1 << 30}
	sup, _ := mustSupervisor(t, src, nil)
	ring := capture.NewRing(16, 64)
	if _, err := sup.ReadBatch(ring); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := sup.ReadBatch(ring); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("supervised ReadBatch allocates %.2f times per call", allocs)
	}
}
