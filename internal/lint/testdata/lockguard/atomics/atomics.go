// Package atomics holds the retired atomicfield analyzer's cases that no
// type gives, now lockguard goldens: no function-style sync/atomic call,
// and no //bf:guardedby on an atomic-typed field. Copying a typed atomic
// is go vet's copylocks.
package atomics

import (
	"sync"
	"sync/atomic"
)

type counters struct {
	mu sync.Mutex

	// plain is bumped function-style, which leaves it open to plain
	// reads and writes.
	plain uint64

	// mixed claims the mutex and is bumped atomically as well.
	//
	//bf:guardedby mu
	mixed uint64

	// guardedTyped needs no mutex: its methods are the only access.
	//
	//bf:guardedby mu
	guardedTyped atomic.Bool // want "sync/atomic type and a //bf:guardedby marker"

	//bf:guardedby mu
	guardedArr [2]atomic.Int64 // want "sync/atomic type and a //bf:guardedby marker"

	// typed and arr are the sanctioned shape.
	typed atomic.Uint64
	arr   [4]atomic.Uint64
}

func BadFunctionStyle(c *counters) uint64 {
	atomic.AddUint64(&c.plain, 1)      // want "function-style atomic.AddUint64"
	return atomic.LoadUint64(&c.plain) // want "function-style atomic.LoadUint64"
}

func BadMixed(c *counters) {
	atomic.AddUint64(&c.mixed, 1) // want "function-style atomic.AddUint64" "c.mixed is guarded by c.mu"
}

func GoodTyped(c *counters) uint64 {
	c.typed.Add(1)
	var total uint64
	for i := range c.arr {
		total += c.arr[i].Load()
	}
	return total + c.typed.Load()
}
