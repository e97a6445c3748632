package resilience

// The chaos harness: injected source failures, stalls, partial reads,
// clock jumps and slow filters driven through the full supervised stack
// (Supervisor feeding Buffer feeding a consumer), asserting the daemon
// contract — survive transient chaos with bounded backoff, shed
// deterministically under overload, flag stalls, and leak nothing.

import (
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"bitmapfilter/internal/capture"
)

// noLeakedGoroutines records the goroutine count and verifies at cleanup
// that the test returned to it (with a grace period for exits in
// flight).
func noLeakedGoroutines(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for {
			if runtime.NumGoroutine() <= before {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				n := runtime.Stack(buf, true)
				t.Fatalf("goroutine leak: %d before, %d after\n%s",
					before, runtime.NumGoroutine(), buf[:n])
			}
			time.Sleep(time.Millisecond)
		}
	})
}

// TestChaosSurvivesThousandTransientFailures is the headline injection:
// a source that fails on every other read, 1000 failures across the
// run, supervised and buffered. Every frame must arrive, every failure
// must be counted, every backoff must stay at the bottom of the ladder,
// and no goroutine may outlive the stack.
func TestChaosSurvivesThousandTransientFailures(t *testing.T) {
	noLeakedGoroutines(t)

	const (
		wantFrames   = 2000
		wantFailures = 1000
	)
	src := &flakySource{total: wantFrames, perRead: 2, errEvery: 2, err: errTransient}
	sl := newInstantSleep()
	sup, err := NewSupervisor(SupervisorConfig{
		Open:  func() (capture.Source, error) { return src, nil },
		Sleep: sl.sleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	buf := NewBuffer(sup, BufferConfig{Capacity: 4096, SnapLen: 64})

	got := drain(t, buf)
	if got != wantFrames {
		t.Errorf("delivered %d frames through the chaos, want %d", got, wantFrames)
	}

	st := sup.Stats()
	if st.TransientErrors != wantFailures {
		t.Errorf("transient errors = %d, want %d", st.TransientErrors, wantFailures)
	}
	if st.Frames != wantFrames {
		t.Errorf("supervisor frames = %d, want %d", st.Frames, wantFrames)
	}
	if st.Reopens != 0 {
		t.Errorf("reopens = %d, want 0 (failures never consecutive)", st.Reopens)
	}
	if st.Backoffs != wantFailures {
		t.Errorf("backoffs = %d, want %d", st.Backoffs, wantFailures)
	}

	// Bounded backoff: because a success always intervened, every sleep
	// is from the bottom of the ladder (base ± jitter).
	if len(sl.slept) != wantFailures {
		t.Fatalf("recorded %d backoff sleeps, want %d", len(sl.slept), wantFailures)
	}
	maxAllowed := time.Duration(float64(baseBackoff) * (1 + backoffJitter))
	for i, d := range sl.slept {
		if d <= 0 || d > maxAllowed {
			t.Fatalf("backoff %d = %v, want (0, %v]", i, d, maxAllowed)
		}
	}
	if st.BackoffTotal > time.Duration(wantFailures)*maxAllowed {
		t.Errorf("backoff total %v exceeds the bound", st.BackoffTotal)
	}

	bst := buf.Stats()
	if bst.Accepted+bst.Shed != wantFrames {
		t.Errorf("buffer accounted %d frames, want %d", bst.Accepted+bst.Shed, wantFrames)
	}

	if err := buf.Close(); err != nil {
		t.Fatal(err)
	}
	sup.Close()
}

// TestChaosReopenStorm: sources that die for good every few frames, a
// factory that keeps replacing them after reopenAfter failures each. The
// stream must continue across hundreds of reopens with the budget reset
// by each successful read.
func TestChaosReopenStorm(t *testing.T) {
	noLeakedGoroutines(t)

	const (
		perSource = 4
		sources   = 250
	)
	opens := 0
	sl := newInstantSleep()
	sup, err := NewSupervisor(SupervisorConfig{
		Open: func() (capture.Source, error) {
			opens++
			if opens > sources {
				return &flakySource{total: 0}, nil // clean EOF ends the run
			}
			return &dyingSource{healthy: perSource, err: errTransient}, nil
		},
		Sleep: sl.sleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, sup)
	if want := perSource * sources; got != want {
		t.Errorf("delivered %d frames across the reopen storm, want %d", got, want)
	}
	st := sup.Stats()
	if st.Reopens != sources {
		t.Errorf("reopens = %d, want %d", st.Reopens, sources)
	}
	if st.TransientErrors != reopenAfter*sources {
		t.Errorf("transient errors = %d, want %d", st.TransientErrors, reopenAfter*sources)
	}
}

// TestChaosSlowFilterOverload drives a fast supervised source against a
// consumer that does not keep up, end to end: the buffer must shed
// exactly the overflow, count it, and deliver the rest intact.
func TestChaosSlowFilterOverload(t *testing.T) {
	noLeakedGoroutines(t)

	const total = 5000
	src := &flakySource{total: total, perRead: 32, errEvery: 7, err: errTransient}
	sl := newInstantSleep()
	sup, err := NewSupervisor(SupervisorConfig{
		Open:  func() (capture.Source, error) { return src, nil },
		Sleep: sl.sleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	buf := NewBuffer(sup, BufferConfig{Capacity: 200, SnapLen: 64})

	// The slow filter: refuses to read until the whole burst has been
	// pushed or shed, then drains.
	for {
		st := buf.Stats()
		if st.Accepted+st.Shed == total {
			break
		}
		runtime.Gosched()
	}
	st := buf.Stats()
	if st.Accepted != 180 { // high watermark of 200
		t.Errorf("accepted %d frames, want 180", st.Accepted)
	}
	if st.Shed != total-180 {
		t.Errorf("shed %d frames, want %d", st.Shed, total-180)
	}
	if got := drain(t, buf); got != int(st.Accepted) {
		t.Errorf("drained %d frames, want %d", got, st.Accepted)
	}
	buf.Close()
}

// TestChaosQuietSourceIsNotAStall wires the watchdog into the supervised
// stack: an intake parked inside the source's ReadBatch — a quiet link — is
// idle, not stalled, however long it waits, and the frame that ends the wait
// beats. A source that fails without end does stall the probe: a failed
// read is not progress, and the backoffs between them count.
func TestChaosQuietSourceIsNotAStall(t *testing.T) {
	noLeakedGoroutines(t)

	src := newStallingSource()
	clk := &fakeClock{}
	wd := NewWatchdog(clk.fn())
	probe := wd.Heartbeat("intake", 100*time.Millisecond)
	h := NewHealth(wd)

	sup, err := NewSupervisor(SupervisorConfig{
		Open:  func() (capture.Source, error) { return src, nil },
		Probe: probe,
	})
	if err != nil {
		t.Fatal(err)
	}
	buf := NewBuffer(sup, BufferConfig{Capacity: 16, SnapLen: 64})
	h.SetReady()

	// The intake is parked inside the quiet source, for ten stall windows.
	for deadline := time.Now().Add(10 * time.Second); !probe.idle.Load(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the intake never parked in the source")
		}
	}
	clk.advance(time.Second)
	if ok, detail := h.Live(); !ok {
		t.Errorf("not live while the intake waits on a quiet link: %s", detail)
	}
	if ok, _ := h.Ready(); !ok {
		t.Error("not ready while the intake waits on a quiet link")
	}

	// A frame flows: the read beats, and the probe is busy and fresh.
	close(src.release)
	ring := capture.NewRing(1, 64)
	if n, err := buf.ReadBatch(ring); n != 1 || err != nil {
		t.Fatalf("post-release read = %d, %v", n, err)
	}
	if ok, detail := h.Live(); !ok {
		t.Errorf("not live after a frame: %s", detail)
	}
	buf.Close()
	drain(t, buf) // consume the EOF so the intake goroutine exits
	sup.Close()

	wd = NewWatchdog(clk.fn())
	fails := wd.Heartbeat("failing", 100*time.Millisecond)
	sup, err = NewSupervisor(SupervisorConfig{
		Open:  func() (capture.Source, error) { return &flakySource{errEvery: 1, err: errTransient}, nil },
		Sleep: clk.advance,
		Probe: fails,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sup.ReadBatch(ring); !errors.Is(err, ErrExhausted) {
		t.Fatalf("a source that only fails: %v, want ErrExhausted", err)
	}
	if ok, detail := NewHealth(wd).Live(); ok || !strings.Contains(detail, "failing") {
		t.Errorf("live = %v (%q) with a source failing for %v of backoff", ok, detail, sup.Stats().BackoffTotal)
	}
}

// TestChaosPartialReads: a source that trickles one frame per call with
// interleaved failures must still deliver everything, in order.
func TestChaosPartialReads(t *testing.T) {
	noLeakedGoroutines(t)

	const total = 300
	src := &flakySource{total: total, perRead: 1, errEvery: 3, err: errTransient}
	sl := newInstantSleep()
	sup, err := NewSupervisor(SupervisorConfig{
		Open:  func() (capture.Source, error) { return src, nil },
		Sleep: sl.sleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	buf := NewBuffer(sup, BufferConfig{Capacity: 512, SnapLen: 64})

	ring := capture.NewRing(8, 64)
	seq := 0
	for {
		n, err := buf.ReadBatch(ring)
		for i := 0; i < n; i++ {
			want := byte(seq)
			if ring[i].Data[0] != want {
				t.Fatalf("frame %d out of order: data[0] = %d", seq, ring[i].Data[0])
			}
			seq++
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if seq != total {
		t.Errorf("delivered %d frames, want %d", seq, total)
	}
	buf.Close()
}
