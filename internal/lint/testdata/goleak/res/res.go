// Package res stands in for internal/resilience (synthetic import path
// leaf /resilience): every go statement needs a statically visible join.
package res

import (
	"context"
	"sync"
	"time"
)

var counter int

// work is join-free on purpose: goroutines running it must provide
// their own signal.
func work() {
	counter++
}

func work2() error {
	counter++
	return nil
}

// BadFire spawns with no way for anyone to observe completion, as a
// never-stopped ticker refreshing a gauge would.
func BadFire() {
	go func() { // want "no statically visible join"
		work()
	}()
}

// GoodClose joins via the done-channel close idiom.
func GoodClose() chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		work()
	}()
	return done
}

// GoodSend joins via a buffered error send.
func GoodSend() error {
	errc := make(chan error, 1)
	go func() {
		errc <- work2()
	}()
	return <-errc
}

// GoodWG pairs Add in the spawner with Done in the goroutine.
func GoodWG() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		work()
	}()
	wg.Wait()
}

// BadWGNoAdd has a Done with no visible Add: the join claim cannot be
// audited from here.
func BadWGNoAdd(wg *sync.WaitGroup) {
	go func() { // want "WaitGroup.Done but the spawning function never calls Add"
		defer wg.Done()
		work()
	}()
}

// worker carries its own done channel; run closes it.
type worker struct {
	done chan struct{}
}

func (w *worker) run() {
	defer close(w.done)
	work()
}

// GoodMethod resolves the named-method goroutine body.
func GoodMethod() {
	w := &worker{done: make(chan struct{})}
	go w.run()
	<-w.done
}

// loop reaches its join two calls deep — finish closes the channel.
func (w *worker) loop() {
	work()
	w.finish()
}

func (w *worker) finish() {
	close(w.done)
}

// GoodTransitive: the join is inside a same-package callee of the
// goroutine body.
func GoodTransitive() {
	w := &worker{done: make(chan struct{})}
	go w.loop()
	<-w.done
}

// BadOpaque spawns a function value the analyzer cannot resolve.
func BadOpaque(f func()) {
	go f() // want "cannot be statically resolved"
}

// BadCtxOnly: waiting on ctx.Done() is cancellation, not a join —
// context.Done must not satisfy the WaitGroup rule.
func BadCtxOnly(ctx context.Context) {
	go func() { // want "no statically visible join"
		<-ctx.Done()
		work()
	}()
}

type saver struct{ stop chan struct{} }

// BadStopNoWait: a periodic loop that signals nothing when it exits, so
// Stop can only close stop and return while a save is still running. No
// test notices a save that outlives Stop.
func (s *saver) BadStopNoWait() {
	go s.loop() // want "no statically visible join"
}

func (s *saver) loop() {
	for {
		select {
		case <-s.stop:
			return
		case <-time.After(time.Second):
			work()
		}
	}
}

// AllowedFire is a documented process-lifetime goroutine.
//
//bf:allow goleak process-lifetime stats flusher, reaped at exit
func AllowedFire() {
	go work()
}
