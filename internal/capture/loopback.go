package capture

import (
	"errors"
	"io"
	"slices"
	"sync"
)

// ErrClosed is returned by Loopback.WriteFrame after Close.
var ErrClosed = errors.New("capture: loopback closed")

// Loopback is an in-memory Source with a write side: frames written on one
// side come out the other in order. It exists so the bfwall pump and its
// tests can run hermetically — no NIC, no trace file — and it is safe for
// one writer and one reader goroutine.
type Loopback struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []Frame // data slices owned by the queue
	closed bool
}

// NewLoopback returns an empty loopback pair.
func NewLoopback() *Loopback {
	l := &Loopback{}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// WriteFrame queues one frame. The frame bytes are copied, so the caller
// may reuse f.Data immediately and the queue owns what it holds.
func (l *Loopback) WriteFrame(f Frame) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	queued := f
	queued.Data = slices.Clip(append([]byte(nil), f.Data...))
	if queued.OrigLen == 0 {
		queued.OrigLen = len(f.Data)
	}
	l.queue = append(l.queue, queued)
	l.cond.Signal()
	return nil
}

// ReadBatch implements Source: it blocks until at least one frame is
// queued or the loopback is closed, then drains up to len(frames) entries.
// It is an aliasing source: each entry gets the queue's own copy of the
// frame, made by WriteFrame and referenced by nothing else from here on,
// rather than a second copy of it.
func (l *Loopback) ReadBatch(frames []Frame) (int, error) {
	if len(frames) == 0 {
		return 0, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.queue) == 0 {
		if l.closed {
			return 0, io.EOF
		}
		l.cond.Wait()
	}
	n := 0
	for n < len(frames) && n < len(l.queue) {
		frames[n] = l.queue[n]
		n++
	}
	l.queue = l.queue[:copy(l.queue, l.queue[n:])]
	return n, nil
}

// Close implements Source for both sides: subsequent writes fail, readers
// drain whatever is already queued and then get io.EOF.
func (l *Loopback) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	l.cond.Broadcast()
	return nil
}
