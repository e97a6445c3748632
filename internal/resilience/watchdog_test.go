package resilience

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is an injectable watchdog clock for deterministic stall and
// clock-jump tests.
type fakeClock struct{ now atomic.Int64 }

func (c *fakeClock) fn() func() time.Duration {
	return func() time.Duration { return time.Duration(c.now.Load()) }
}

func (c *fakeClock) advance(d time.Duration) { c.now.Add(int64(d)) }
func (c *fakeClock) set(d time.Duration)     { c.now.Store(int64(d)) }

func TestWatchdogBeatAndStall(t *testing.T) {
	clk := &fakeClock{}
	wd := NewWatchdog(clk.fn())
	p := wd.Heartbeat("pump", 100*time.Millisecond)

	if stalls := wd.Check(); len(stalls) != 0 {
		t.Fatalf("fresh probe already stalled: %v", stalls)
	}
	clk.advance(90 * time.Millisecond)
	if stalls := wd.Check(); len(stalls) != 0 {
		t.Fatalf("stalled before the threshold: %v", stalls)
	}
	clk.advance(20 * time.Millisecond) // age 110ms > 100ms
	stalls := wd.Check()
	if len(stalls) != 1 || stalls[0].Name != "pump" {
		t.Fatalf("stalls = %v, want pump flagged", stalls)
	}
	if stalls[0].Age != 110*time.Millisecond {
		t.Errorf("stall age = %v, want 110ms", stalls[0].Age)
	}

	p.Beat()
	if stalls := wd.Check(); len(stalls) != 0 {
		t.Fatalf("beat did not clear the stall: %v", stalls)
	}
	if got := p.beats.Load(); got != 1 {
		t.Errorf("beats = %d, want 1", got)
	}
}

// TestWatchdogIdleExempt: a loop parked on a blocking read is not a
// stall; resuming work restarts the window.
func TestWatchdogIdleExempt(t *testing.T) {
	clk := &fakeClock{}
	wd := NewWatchdog(clk.fn())
	p := wd.Heartbeat("capture", 50*time.Millisecond)

	p.SetIdle(true)
	clk.advance(time.Hour)
	if stalls := wd.Check(); len(stalls) != 0 {
		t.Fatalf("idle probe flagged: %v", stalls)
	}

	// Work resumes: the window restarts now, not an hour ago.
	p.SetIdle(false)
	if stalls := wd.Check(); len(stalls) != 0 {
		t.Fatalf("probe stalled immediately after leaving idle: %v", stalls)
	}
	clk.advance(60 * time.Millisecond)
	if stalls := wd.Check(); len(stalls) != 1 {
		t.Fatalf("probe not flagged after stalling post-idle: %v", stalls)
	}
}

// TestWatchdogClockJump: a clock that jumps forward past the threshold
// (a VM resumed, a stepped clock) flags the probe with its honest age.
func TestWatchdogClockJump(t *testing.T) {
	clk := &fakeClock{}
	clk.set(time.Hour)
	wd := NewWatchdog(clk.fn())
	wd.Heartbeat("pump", 100*time.Millisecond)

	clk.advance(time.Minute)
	if stalls := wd.Check(); len(stalls) != 1 || stalls[0].Age != time.Minute {
		t.Fatalf("stalls after a one-minute jump = %v, want pump aged 1m", stalls)
	}
}

// TestWatchdogRegisterDuringStatus registers probes while the watchdog is
// read, as bfwall's pump registers its workers while /metrics may already
// be scraped; under -race a read that skips the lock fails here.
func TestWatchdogRegisterDuringStatus(t *testing.T) {
	wd := NewWatchdog(nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			wd.Heartbeat(fmt.Sprint("worker", i), time.Hour)
		}
	}()
	for read := true; read; {
		select {
		case <-done:
			read = false
		default:
		}
		wd.Check()
		wd.Status()
	}
	if n := len(wd.Status()); n != 200 {
		t.Errorf("status has %d probes, want 200", n)
	}
}

func TestWatchdogStatus(t *testing.T) {
	clk := &fakeClock{}
	wd := NewWatchdog(clk.fn())
	p1 := wd.Heartbeat("a", 50*time.Millisecond)
	p2 := wd.Heartbeat("b", 50*time.Millisecond)
	p1.Beat()
	p2.SetIdle(true)
	clk.advance(100 * time.Millisecond)
	p1.Beat()

	status := wd.Status()
	if len(status) != 2 {
		t.Fatalf("status has %d probes, want 2", len(status))
	}
	byName := map[string]ProbeStatus{}
	for _, st := range status {
		byName[st.Name] = st
	}
	if a := byName["a"]; a.Beats != 2 || a.Stalled || a.Age != 0 {
		t.Errorf("probe a status = %+v", a)
	}
	if b := byName["b"]; b.Stalled || b.Age != 100*time.Millisecond {
		t.Errorf("probe b status = %+v", b)
	}
	if p1.Name() != "a" {
		t.Errorf("Name() = %q", p1.Name())
	}
}

func TestHealthLifecycle(t *testing.T) {
	clk := &fakeClock{}
	wd := NewWatchdog(clk.fn())
	p := wd.Heartbeat("pump", 100*time.Millisecond)
	h := NewHealth(wd)

	// Starting: live (nothing stalled) but not ready.
	if ok, _ := h.Live(); !ok {
		t.Error("starting process not live")
	}
	if ok, detail := h.Ready(); ok || detail != "starting" {
		t.Errorf("Ready during startup = %v, %q", ok, detail)
	}

	h.SetReady()
	if ok, _ := h.Ready(); !ok {
		t.Error("not ready after SetReady")
	}
	if h.State() != StateReady {
		t.Errorf("state = %v", h.State())
	}

	// A stall kills both liveness and readiness.
	clk.advance(200 * time.Millisecond)
	if ok, detail := h.Live(); ok || !strings.Contains(detail, "pump stalled") {
		t.Errorf("Live with stalled pump = %v, %q", ok, detail)
	}
	if ok, _ := h.Ready(); ok {
		t.Error("ready with a stalled probe")
	}

	// Draining: no longer ready, but still live — do not kill harder.
	p.Beat()
	h.SetDraining()
	if ok, _ := h.Live(); !ok {
		t.Error("draining process reported dead")
	}
	if ok, detail := h.Ready(); ok || detail != "draining" {
		t.Errorf("Ready while draining = %v, %q", ok, detail)
	}
	if h.State().String() != "draining" {
		t.Errorf("state string = %q", h.State())
	}
}

// TestHealthNilWatchdog: a Health with no watchdog answers from the
// state machine alone.
func TestHealthNilWatchdog(t *testing.T) {
	h := NewHealth(nil)
	if ok, _ := h.Live(); !ok {
		t.Error("nil-watchdog health not live")
	}
	h.SetReady()
	if ok, _ := h.Ready(); !ok {
		t.Error("nil-watchdog health not ready")
	}
}
