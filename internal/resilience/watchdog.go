package resilience

import (
	"sync"
	"sync/atomic"
	"time"
)

// DefaultStallAfter is the stall threshold of every probe bfwall
// registers, and the one Heartbeat applies when given zero.
const DefaultStallAfter = 30 * time.Second

// Watchdog collects liveness probes from the daemon's loops — capture
// intake, batch processing, the checkpointer — and flags the ones that
// stopped making progress. It deliberately does not kill anything
// itself: it is the evidence source for Health (and thence /healthz),
// for metrics, and for operator logs.
//
// The clock is injectable and monotonic by construction: the default
// measures elapsed time since the watchdog was built (Go's monotonic
// reading), so wall-clock jumps — NTP steps, VM pauses resumed with a
// new wall time — cannot spuriously stall or un-stall probes.
type Watchdog struct {
	now func() time.Duration

	mu     sync.Mutex
	probes []*Probe //bf:guardedby mu
}

// NewWatchdog builds a watchdog on the given clock; nil uses the
// monotonic elapsed-time default.
func NewWatchdog(now func() time.Duration) *Watchdog {
	if now == nil {
		start := time.Now()
		now = func() time.Duration { return time.Since(start) }
	}
	return &Watchdog{now: now}
}

// Probe is one supervised loop. Loops call Beat when they complete an
// iteration and SetIdle(true) before parking on a blocking read: a loop
// wedged in our code fails to beat, while a loop legitimately parked in
// the kernel waiting for a quiet wire is explicitly exempt — an idle
// link is not a stall.
type Probe struct {
	name       string
	stallAfter time.Duration
	wd         *Watchdog

	last  atomic.Int64 // last beat on the watchdog clock, ns
	beats atomic.Uint64
	idle  atomic.Bool
}

// Heartbeat registers a probe: the loop must call Beat at least every
// stallAfter (DefaultStallAfter if not positive), or declare itself
// idle, or it is flagged.
func (w *Watchdog) Heartbeat(name string, stallAfter time.Duration) *Probe {
	if stallAfter <= 0 {
		stallAfter = DefaultStallAfter
	}
	p := &Probe{name: name, stallAfter: stallAfter, wd: w}
	p.last.Store(int64(w.now()))
	w.mu.Lock()
	w.probes = append(w.probes, p)
	w.mu.Unlock()
	return p
}

// Beat records one loop iteration.
func (p *Probe) Beat() {
	p.beats.Add(1)
	p.last.Store(int64(p.wd.now()))
}

// SetIdle marks the probe as parked on a blocking call (true) or
// actively working (false). Leaving idle also counts as a beat, so the
// stall window restarts from the moment work resumed.
func (p *Probe) SetIdle(idle bool) {
	if !idle && p.idle.Load() {
		p.last.Store(int64(p.wd.now()))
	}
	p.idle.Store(idle)
}

// Name returns the probe's registered name.
func (p *Probe) Name() string { return p.name }

// age returns the time since the last beat. The beat is loaded before the
// clock is read, so on a monotonic clock the age is never negative.
func (p *Probe) age() time.Duration {
	last := time.Duration(p.last.Load())
	return p.wd.now() - last
}

// stalled reports whether the probe, aged age, is past its threshold: a
// probe parked idle never is.
func (p *Probe) stalled(age time.Duration) bool {
	return !p.idle.Load() && age > p.stallAfter
}

// Stall is one flagged probe.
type Stall struct {
	// Name identifies the probe.
	Name string
	// Age is how long ago it last made progress.
	Age time.Duration
}

// ProbeStatus is one probe's state for metrics export.
type ProbeStatus struct {
	Name    string
	Beats   uint64
	Age     time.Duration
	Stalled bool
}

// registered is the probes registered so far.
func (w *Watchdog) registered() []*Probe {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.probes
}

// Check evaluates every probe now and returns the stalled ones (nil
// when all healthy).
func (w *Watchdog) Check() []Stall {
	var stalls []Stall
	for _, p := range w.registered() {
		if age := p.age(); p.stalled(age) {
			stalls = append(stalls, Stall{Name: p.name, Age: age})
		}
	}
	return stalls
}

// Status reports every probe's state (for /metrics and /stats).
func (w *Watchdog) Status() []ProbeStatus {
	probes := w.registered()
	out := make([]ProbeStatus, 0, len(probes))
	for _, p := range probes {
		age := p.age()
		out = append(out, ProbeStatus{Name: p.name, Beats: p.beats.Load(), Age: age, Stalled: p.stalled(age)})
	}
	return out
}
