package resilience

import (
	"fmt"
	"io"
	"runtime/debug"
	"sync"

	"bitmapfilter/internal/capture"
)

// DefaultCapacity is the queue depth NewBuffer applies for a zero
// BufferConfig.Capacity.
const DefaultCapacity = 4096

// The intake and the shed window.
const (
	// intakeBatch is the intake goroutine's read size, in frames.
	intakeBatch = 256
	// highWatermark starts shedding when depth/capacity reaches it;
	// lowWatermark stops shedding once depth/capacity falls back to it.
	// The hysteresis gap keeps the filter from flapping in and out of
	// shedding on every frame.
	highWatermark = 0.9
	lowWatermark  = 0.7
)

// BufferConfig parameterizes a Buffer.
type BufferConfig struct {
	// Capacity is the bounded queue depth in frames
	// (DefaultCapacity if 0).
	Capacity int
	// SnapLen is the per-slot byte capacity
	// (capture.DefaultSnapLen if 0).
	SnapLen int
	// Logf, when set, receives one line per shedding transition.
	Logf func(format string, args ...any)
}

// BufferStats is a point-in-time view for metrics export.
type BufferStats struct {
	// Accepted counts frames queued; Shed counts frames discarded under
	// overload. Accepted+Shed is every frame the source delivered.
	Accepted, Shed uint64
	// ShedEvents counts transitions into shedding mode.
	ShedEvents uint64
	// Depth is the current queue depth, MaxDepth the high-water mark,
	// Capacity the bound.
	Depth, MaxDepth, Capacity int
	// Shedding reports whether the buffer is currently shedding.
	Shedding bool
}

// Buffer decouples capture from filtering with a bounded frame queue:
// an intake goroutine drains the underlying source as fast as it
// produces, and the filter pulls from the queue at its own pace. When
// the filter falls behind and the queue passes the high watermark, new
// frames are shed (counted, never silently lost) until the queue drains
// past the low watermark — so a scan burst degrades the daemon
// predictably instead of growing memory without bound or back-pressuring
// the NIC into drops the daemon cannot see.
//
// Buffer implements capture.Source; Close closes the underlying source,
// the intake drains out, and readers consume the remaining queue before
// seeing io.EOF — which is exactly the graceful-drain order.
type Buffer struct {
	src capture.Source
	cfg BufferConfig

	mu   sync.Mutex
	cond *sync.Cond

	// Fixed circular queue; slot Data capacities are allocated once and
	// reused forever, so steady state pushes and pops are allocation
	// free.
	slots []capture.Frame //bf:guardedby mu
	head  int             //bf:guardedby mu
	count int             //bf:guardedby mu

	shedding bool //bf:guardedby mu
	// done flags that the intake finished; err is its terminal error.
	done bool  //bf:guardedby mu
	err  error //bf:guardedby mu

	accepted   uint64 //bf:guardedby mu
	shed       uint64 //bf:guardedby mu
	shedEvents uint64 //bf:guardedby mu
	maxDepth   int    //bf:guardedby mu

	closeOnce sync.Once
	// intakeDone is closed when the intake goroutine exits — the join
	// Close blocks on, so no goroutine outlives the Buffer across
	// reopen cycles.
	intakeDone chan struct{}
}

var _ capture.Source = (*Buffer)(nil)

// NewBuffer wraps src and starts the intake goroutine. The goroutine
// exits when the source does (EOF, fatal error, or Close).
func NewBuffer(src capture.Source, cfg BufferConfig) *Buffer {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	if cfg.SnapLen <= 0 {
		cfg.SnapLen = capture.DefaultSnapLen
	}
	b := &Buffer{
		src:        src,
		cfg:        cfg,
		slots:      capture.NewRing(cfg.Capacity, cfg.SnapLen),
		intakeDone: make(chan struct{}),
	}
	b.cond = sync.NewCond(&b.mu)
	go b.intake()
	return b
}

// highDepth and lowDepth convert the watermark fractions to frame
// counts. High is clamped to ≥1 so a tiny queue still accepts frames.
func (b *Buffer) highDepth() int { return max(1, int(float64(b.cfg.Capacity)*highWatermark)) }
func (b *Buffer) lowDepth() int  { return int(float64(b.cfg.Capacity) * lowWatermark) }

// intake drains the source into the queue until it ends. The frames it
// copies may alias a mapped trace (capture.OpenTrace), so it runs with
// panic-on-fault: a truncation under the copy ends the intake with
// capture.ErrTraceFault, as it ends a Replay, instead of the process.
func (b *Buffer) intake() {
	defer close(b.intakeDone)
	defer func() {
		if p := recover(); p != nil {
			b.finish(fmt.Errorf("resilience: queueing a frame: %w", capture.TraceFault(p)))
		}
	}()
	debug.SetPanicOnFault(true)
	ring := capture.NewRing(intakeBatch, b.cfg.SnapLen)
	for {
		n, err := b.src.ReadBatch(ring)
		if n > 0 {
			b.push(ring[:n])
		}
		if err != nil {
			b.finish(err)
			return
		}
	}
}

// push enqueues a batch, shedding per the watermarks. The lock is released
// by a defer: a fault in the copy (intake) must not leave it held.
func (b *Buffer) push(frames []capture.Frame) {
	defer b.cond.Signal()
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := range frames {
		if b.shedding && b.count <= b.lowDepth() {
			b.shedding = false
			if logShedEvent(b.shedEvents) {
				b.logf("overload cleared (depth %d/%d); %d frames shed over %d events", b.count, b.cfg.Capacity, b.shed, b.shedEvents)
			}
		}
		if !b.shedding && b.count >= b.highDepth() {
			b.shedding = true
			b.shedEvents++
			if logShedEvent(b.shedEvents) {
				b.logf("overload: queue at %d/%d, shedding (event %d)", b.count, b.cfg.Capacity, b.shedEvents)
			}
		}
		if b.shedding {
			b.shed++
			continue
		}
		slot := &b.slots[(b.head+b.count)%len(b.slots)]
		slot.Time = frames[i].Time
		slot.OrigLen = frames[i].OrigLen
		slot.Data = append(slot.Data[:0], frames[i].Data...)
		b.count++
		if b.count > b.maxDepth {
			b.maxDepth = b.count
		}
		b.accepted++
	}
}

// finish records the intake's terminal error and wakes all readers.
func (b *Buffer) finish(err error) {
	b.mu.Lock()
	b.done = true
	b.err = err
	b.mu.Unlock()
	b.cond.Broadcast()
}

// ReadBatch implements capture.Source: it blocks until at least one
// frame is queued or the intake has finished, drains up to len(frames)
// entries into the caller's buffers, and — once the queue is empty —
// returns the intake's terminal error (io.EOF after a clean close).
func (b *Buffer) ReadBatch(frames []capture.Frame) (int, error) {
	if len(frames) == 0 {
		return 0, nil
	}
	b.mu.Lock()
	for b.count == 0 && !b.done {
		b.cond.Wait()
	}
	if b.count == 0 {
		err := b.err
		b.mu.Unlock()
		if err == nil {
			err = io.EOF
		}
		return 0, err
	}
	n := 0
	for n < len(frames) && b.count > 0 {
		slot := &b.slots[b.head]
		frames[n].Time = slot.Time
		frames[n].OrigLen = slot.OrigLen
		frames[n].Data = append(frames[n].Data[:0], slot.Data...)
		b.head = (b.head + 1) % len(b.slots)
		b.count--
		n++
	}
	if b.shedding && b.count <= b.lowDepth() {
		b.shedding = false
		if logShedEvent(b.shedEvents) {
			b.logf("overload cleared (depth %d/%d); %d frames shed over %d events", b.count, b.cfg.Capacity, b.shed, b.shedEvents)
		}
	}
	b.mu.Unlock()
	return n, nil
}

// logShedEvent rate-limits overload logging under sustained pressure: a
// queue flapping across its watermarks thousands of times per second
// must not flood the log, so only power-of-two event counts (1st, 2nd,
// 4th, 8th, …) are reported. The counters on /metrics stay exact.
func logShedEvent(events uint64) bool {
	return events&(events-1) == 0
}

// Close implements capture.Source: it closes the underlying source,
// which winds the intake down (the Source contract says a blocked
// ReadBatch returns after Close), and then joins the intake goroutine
// before returning — so when Close returns, nothing touches the source
// anymore and nothing is leaked across a reopen cycle. Readers drain
// the remaining queue and then see the terminal error. Idempotent,
// callable from any goroutine.
func (b *Buffer) Close() error {
	var err error
	b.closeOnce.Do(func() { err = b.src.Close() })
	<-b.intakeDone
	return err
}

func (b *Buffer) logf(format string, args ...any) {
	if b.cfg.Logf != nil {
		b.cfg.Logf(format, args...)
	}
}

// Stats returns a consistent snapshot of the counters.
func (b *Buffer) Stats() BufferStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BufferStats{
		Accepted:   b.accepted,
		Shed:       b.shed,
		ShedEvents: b.shedEvents,
		Depth:      b.count,
		MaxDepth:   b.maxDepth,
		Capacity:   b.cfg.Capacity,
		Shedding:   b.shedding,
	}
}
