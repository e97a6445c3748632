package resilience

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"bitmapfilter/internal/capture"
)

// newDetachedBuffer builds a Buffer with no intake goroutine so tests
// can drive push/ReadBatch deterministically from one goroutine.
func newDetachedBuffer(capacity int, policy OverloadPolicy) *Buffer {
	b := &Buffer{
		cfg: BufferConfig{
			Capacity:      capacity,
			SnapLen:       64,
			ReadBatch:     8,
			HighWatermark: DefaultHighWatermark,
			LowWatermark:  DefaultLowWatermark,
			Policy:        policy,
		},
		slots: capture.NewRing(capacity, 64),
	}
	// No intake goroutine to join: pre-close the channel so Close does
	// not block.
	b.intakeDone = make(chan struct{})
	close(b.intakeDone)
	b.cond = sync.NewCond(&b.mu)
	return b
}

// burst builds n synthetic frames.
func burst(n int) []capture.Frame {
	frames := capture.NewRing(n, 64)
	for i := range frames {
		fillFrame(&frames[i], i)
	}
	return frames
}

func TestParsePolicy(t *testing.T) {
	if p, err := ParsePolicy("drop"); err != nil || p != PolicyDrop {
		t.Errorf("ParsePolicy(drop) = %v, %v", p, err)
	}
	if p, err := ParsePolicy("admit"); err != nil || p != PolicyAdmit {
		t.Errorf("ParsePolicy(admit) = %v, %v", p, err)
	}
	if _, err := ParsePolicy("panic"); err == nil {
		t.Error("ParsePolicy accepted an unknown policy")
	}
	if PolicyDrop.String() != "drop" || PolicyAdmit.String() != "admit" {
		t.Error("policy String round-trip broken")
	}
	var zero OverloadPolicy
	if zero != PolicyDrop {
		t.Error("zero value must be the fail-closed policy")
	}
}

// TestBufferPassthrough: frames flow through the queue in order and the
// terminal EOF arrives only after the queue drains.
func TestBufferPassthrough(t *testing.T) {
	src := &flakySource{total: 500, perRead: 7}
	b := NewBuffer(src, BufferConfig{Capacity: 1024, SnapLen: 64})
	got := drain(t, b)
	if got != 500 {
		t.Errorf("delivered %d frames, want 500", got)
	}
	st := b.Stats()
	if st.Accepted != 500 || st.Shed != 0 || st.Depth != 0 {
		t.Errorf("stats = %+v", st)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBufferCopiesAliasedFrames runs a Replay, whose frames are slices of
// the trace, through the queue as bfwall -queue does: the reader must get
// every frame byte for byte while the trace itself stays untouched — the
// queue copies out of an aliased frame, never into one.
func TestBufferCopiesAliasedFrames(t *testing.T) {
	const count, loops = 300, 3
	trace := pcapTrace(t, count)
	sum := sha256.Sum256(trace)
	// What a Replay delivers directly, copied out frame by frame.
	direct, err := capture.NewReplayBytes(trace, loops)
	if err != nil {
		t.Fatal(err)
	}
	var want []capture.Frame
	ring := capture.NewRing(64, 0)
	for {
		n, err := direct.ReadBatch(ring)
		for _, f := range ring[:n] {
			f.Data = bytes.Clone(f.Data)
			want = append(want, f)
		}
		if err != nil {
			break
		}
	}
	if len(want) != count*loops {
		t.Fatalf("direct replay delivered %d frames, want %d", len(want), count*loops)
	}

	queued, err := capture.NewReplayBytes(trace, loops)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuffer(queued, BufferConfig{Capacity: 8192, SnapLen: 2048})
	defer b.Close()
	// The queue fills, so it gets a ring of its own (capture.Source's
	// ownership rule): the one above aliases the trace, and filling it
	// would write into the bytes the queue's replay is still reading.
	ring = capture.NewRing(64, 0)
	got := 0
	for {
		n, err := b.ReadBatch(ring)
		for _, f := range ring[:n] {
			if got == len(want) {
				t.Fatalf("queue delivered more than %d frames", len(want))
			}
			if w := want[got]; f.Time != w.Time || f.OrigLen != w.OrigLen || !bytes.Equal(f.Data, w.Data) {
				t.Fatalf("frame %d: queued %+v, direct %+v", got, f, w)
			}
			got++
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if got != len(want) {
		t.Errorf("queue delivered %d frames, want %d", got, len(want))
	}
	if sha256.Sum256(trace) != sum {
		t.Error("trace bytes changed on the way through the queue")
	}
}

// TestBufferOrderPreserved: the circular queue must not reorder or
// corrupt frames across wrap-around.
func TestBufferOrderPreserved(t *testing.T) {
	b := newDetachedBuffer(16, PolicyDrop)
	frames := burst(10)
	ring := capture.NewRing(4, 64)
	next := byte(0)
	// Push and pop in a pattern that wraps the ring several times.
	for round := 0; round < 7; round++ {
		for i := range frames {
			fillFrame(&frames[i], round*10+i)
		}
		b.push(frames)
		for popped := 0; popped < 10; {
			n, err := b.ReadBatch(ring)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if ring[i].Data[0] != next {
					t.Fatalf("frame out of order: got seq %d, want %d", ring[i].Data[0], next)
				}
				next++
			}
			popped += n
		}
	}
}

// TestBufferWatermarkHysteresis pins the exact shed window: shedding
// begins at the high watermark, persists until the queue drains to the
// low watermark, and restarts only at the high watermark again.
func TestBufferWatermarkHysteresis(t *testing.T) {
	b := newDetachedBuffer(10, PolicyDrop) // high=9, low=7
	b.push(burst(20))
	st := b.Stats()
	if st.Accepted != 9 || st.Shed != 11 || st.ShedEvents != 1 || !st.Shedding {
		t.Fatalf("after burst: %+v, want 9 accepted / 11 shed / shedding", st)
	}

	// Pop two: depth 7 == low watermark, shedding clears.
	ring := capture.NewRing(2, 64)
	if n, err := b.ReadBatch(ring); err != nil || n != 2 {
		t.Fatalf("pop = %d, %v", n, err)
	}
	if st := b.Stats(); st.Shedding {
		t.Fatalf("still shedding at depth %d (low watermark is 7)", st.Depth)
	}

	// Refill: two more fit (depth 7→9), then shedding resumes.
	b.push(burst(5))
	st = b.Stats()
	if st.Accepted != 11 || st.Shed != 14 || st.ShedEvents != 2 {
		t.Fatalf("after refill: %+v, want 11 accepted / 14 shed / 2 events", st)
	}
	if st.MaxDepth != 9 {
		t.Errorf("max depth = %d, want 9", st.MaxDepth)
	}
}

// TestBufferShedsDeterministically is the slow-filter chaos injection: a
// consumer that reads nothing while a 1000-frame burst arrives. Exactly
// highDepth frames are judged, every other frame is counted shed, and
// accepted+shed equals the injected load.
func TestBufferShedsDeterministically(t *testing.T) {
	const total = 1000
	src := &flakySource{total: total, perRead: 16}
	b := NewBuffer(src, BufferConfig{Capacity: 100, SnapLen: 64})

	// Wait (without reading) until the intake has pushed the whole burst.
	for {
		st := b.Stats()
		if st.Accepted+st.Shed == total {
			break
		}
		runtime.Gosched()
	}
	st := b.Stats()
	if st.Accepted != 90 || st.Shed != 910 || st.ShedEvents != 1 {
		t.Fatalf("stats = %+v, want 90 accepted / 910 shed / 1 event", st)
	}

	// The slow filter finally reads: it gets exactly the accepted frames.
	got := drain(t, b)
	if got != 90 {
		t.Errorf("drained %d frames, want 90", got)
	}
	if st := b.Stats(); st.Shedding {
		t.Error("still shedding after drain")
	}
}

// TestBufferCloseDrains: Close stops intake but queued frames are still
// delivered before EOF — the graceful-drain order.
func TestBufferCloseDrains(t *testing.T) {
	lb := capture.NewLoopback()
	for i := 0; i < 5; i++ {
		f := capture.Frame{}
		fillFrame(&f, i)
		if err := lb.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	b := NewBuffer(lb, BufferConfig{Capacity: 64, SnapLen: 64})
	// Wait for the intake to move the queued frames over.
	for b.Stats().Accepted < 5 {
		runtime.Gosched()
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if got := drain(t, b); got != 5 {
		t.Errorf("drained %d frames after Close, want 5", got)
	}
}

// TestBufferPropagatesTerminalError: a fatal intake error surfaces to
// the reader once the queue is empty.
func TestBufferPropagatesTerminalError(t *testing.T) {
	src := &dyingSource{healthy: 3, err: errTransient}
	b := NewBuffer(src, BufferConfig{Capacity: 64, SnapLen: 64})
	ring := capture.NewRing(8, 64)
	got := 0
	var err error
	for err == nil {
		var n int
		n, err = b.ReadBatch(ring)
		got += n
	}
	if got != 3 {
		t.Errorf("delivered %d frames, want 3", got)
	}
	if !errors.Is(err, errTransient) {
		t.Errorf("terminal err = %v, want the intake error", err)
	}
}

// TestBufferZeroAllocsSteadyState pins the copy-in/copy-out contract:
// once the slot ring is warm, pushes and pops allocate nothing.
func TestBufferZeroAllocsSteadyState(t *testing.T) {
	b := newDetachedBuffer(64, PolicyDrop)
	frames := burst(16)
	ring := capture.NewRing(16, 64)
	// Warm the slot Data capacities.
	b.push(frames)
	if _, err := b.ReadBatch(ring); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		b.push(frames)
		if _, err := b.ReadBatch(ring); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("push+pop allocates %.2f times per cycle", allocs)
	}
}

// TestBufferEmptyRead: a zero-length destination returns immediately.
func TestBufferEmptyRead(t *testing.T) {
	b := newDetachedBuffer(4, PolicyDrop)
	if n, err := b.ReadBatch(nil); n != 0 || err != nil {
		t.Errorf("ReadBatch(nil) = %d, %v", n, err)
	}
}

// tracingSource flags whether a ReadBatch call is in flight, so tests
// can prove nothing touches the source after Close returns.
type tracingSource struct {
	capture.Source
	inRead atomic.Bool
}

func (s *tracingSource) ReadBatch(frames []capture.Frame) (int, error) {
	s.inRead.Store(true)
	defer s.inRead.Store(false)
	return s.Source.ReadBatch(frames)
}

// TestBufferCloseJoinsIntake: Close must not return while the intake
// goroutine is still running — the statically visible join the goleak
// analyzer demands. Before the fix, Close only closed the source and
// the intake unwound asynchronously, so a reopen storm could stack up
// intakes still touching their half-dead sources.
func TestBufferCloseJoinsIntake(t *testing.T) {
	src := &tracingSource{Source: capture.NewLoopback()}
	b := NewBuffer(src, BufferConfig{Capacity: 4, SnapLen: 64})
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if src.inRead.Load() {
		t.Fatal("Close returned while the intake was still inside ReadBatch")
	}
	select {
	case <-b.intakeDone:
	default:
		t.Fatal("intake goroutine still running after Close returned")
	}
}

// TestBufferReaderWakesOnClose: a reader parked on an empty queue must
// wake when the source closes.
func TestBufferReaderWakesOnClose(t *testing.T) {
	lb := capture.NewLoopback()
	b := NewBuffer(lb, BufferConfig{Capacity: 4, SnapLen: 64})
	done := make(chan error, 1)
	go func() {
		_, err := b.ReadBatch(capture.NewRing(1, 64))
		done <- err
	}()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, io.EOF) {
		t.Errorf("read after Close = %v, want io.EOF", err)
	}
}
