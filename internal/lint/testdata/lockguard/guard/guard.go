// Package guard exercises the lockguard analyzer: fields annotated
// //bf:guardedby mu may only be touched in functions that lock mu on the
// same base expression.
package guard

import "sync"

type box struct {
	mu sync.Mutex
	n  int //bf:guardedby mu
}

type rwbox struct {
	mu sync.RWMutex
	m  map[int]int //bf:guardedby mu

	// unguarded has no annotation: the analyzer must ignore it.
	unguarded int
}

// Good: lock/unlock bracket.
func Good(b *box) {
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
}

// GoodDefer: the idiomatic deferred unlock.
func GoodDefer(b *box) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}

// GoodRLock: read locks count.
func GoodRLock(r *rwbox) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.m[0]
}

// GoodUnguarded: unannotated fields are free to roam.
func GoodUnguarded(r *rwbox) int {
	return r.unguarded
}

// GoodConstruct: composite-literal construction cannot race — the value
// has not escaped yet.
func GoodConstruct(n int) *box {
	return &box{n: n}
}

// Bad: no lock anywhere in the function — a health check reading a probe
// list, say, whose probes all register before its first call, so the race
// detector never sees it.
func Bad(b *box) int {
	return b.n // want "b.n is guarded by b.mu, but this function never locks it"
}

// BadWrite: writes are checked too — a setter run before any other
// goroutine exists in its tests, which the race detector never sees.
func BadWrite(b *box) {
	b.n = 7 // want "b.n is guarded by b.mu"
}

type supervisor struct {
	mu      sync.Mutex
	errMu   sync.Mutex
	lastErr string //bf:guardedby errMu
}

// BadWrongMutex: a stats read under the struct's other mutex. No test
// runs the read beside a failing reader's write, so the race detector
// never sees it.
func BadWrongMutex(s *supervisor) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastErr // want "s.lastErr is guarded by s.errMu"
}

// BadWrongBase: locking one instance does not sanction touching another.
func BadWrongBase(a, b *box) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return b.n // want "b.n is guarded by b.mu"
}

// BadGoroutine: a function literal runs concurrently with its creator,
// so it is its own scope and must take the lock itself.
func BadGoroutine(b *box) {
	b.mu.Lock()
	defer b.mu.Unlock()
	go func() {
		b.n++ // want "b.n is guarded by b.mu"
	}()
}

// GoodGoroutine: the closure locks for itself.
func GoodGoroutine(b *box) {
	go func() {
		b.mu.Lock()
		b.n++
		b.mu.Unlock()
	}()
}

// lockedHelper documents its contract instead of locking: the escape
// hatch for helpers called with the lock held.
//
//bf:allow lockguard caller holds b.mu
func lockedHelper(b *box) int {
	return b.n
}

var _ = lockedHelper
