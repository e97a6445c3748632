// Package hot exercises the hotpath analyzer: //bf:hotpath functions may
// not contain allocation-forcing constructs; everything else may.
package hot

import (
	"fmt"
	"sync"
)

type counter struct {
	mu sync.Mutex
	n  int
}

func (c *counter) bump() { c.n++ }

func sinkAny(v any) { _ = v }

func helper() {}

// BadFmt: fmt allocates and boxes.
//
//bf:hotpath
func BadFmt(n int) {
	fmt.Println(n) // want "fmt.Println in hot path BadFmt allocates"
}

// BadMake: allocation per call.
//
//bf:hotpath
func BadMake(n int) []int {
	if n > 64 {
		n = 64
	}
	return make([]int, n) // want "make in hot path BadMake allocates"
}

// BadSliceLit: a slice literal is a hidden make.
//
//bf:hotpath
func BadSliceLit() []int {
	return []int{1, 2, 3} // want "slice literal in hot path BadSliceLit allocates"
}

// BadMapLit: map literals always allocate.
//
//bf:hotpath
func BadMapLit() map[int]int {
	return map[int]int{} // want "map literal in hot path BadMapLit allocates"
}

// BadClosure: closures capture and allocate.
//
//bf:hotpath
func BadClosure() func() int {
	return func() int { return 1 } // want "closure literal in hot path BadClosure allocates"
}

// BadGo: a goroutine launch is far off the per-packet budget.
//
//bf:hotpath
func BadGo() {
	go helper() // want "go statement in hot path BadGo"
}

// BadDefer: arbitrary defers are not free. This one allocates nothing —
// like a defer planted in a filter's per-packet judge, which no zero-alloc
// test sees — so only this rule catches it.
//
//bf:hotpath
func BadDefer(c *counter) {
	defer c.bump() // want "defer in hot path BadDefer"
	c.n++
}

// BadAppend: append may grow.
//
//bf:hotpath
func BadAppend(dst []int, v int) []int {
	return append(dst, v) // want "append in hot path BadAppend"
}

// BadBox: a non-pointer concrete value converted to an interface
// parameter heap-allocates.
//
//bf:hotpath
func BadBox(n int) {
	sinkAny(n) // want "boxes int into interface"
}

// GoodMutexDefer: Unlock defers are open-coded and free.
//
//bf:hotpath
func GoodMutexDefer(c *counter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

// GoodAllowedDefer: the documented escape hatch for load-bearing defers
// (the pooled-put pattern).
//
//bf:hotpath
func GoodAllowedDefer(c *counter) {
	defer c.bump() //bf:allow hotpath pooled put must survive panics
	c.n++
}

// GoodPointerBox: boxing a pointer does not allocate.
//
//bf:hotpath
func GoodPointerBox(c *counter) {
	sinkAny(c)
}

// GoodNilBox: nil literals carry no value to box.
//
//bf:hotpath
func GoodNilBox() {
	sinkAny(nil)
}

// GoodStructWork: plain field math is the expected hot-path shape.
//
//bf:hotpath
func GoodStructWork(c *counter, xs []int) int {
	sum := 0
	for _, x := range xs {
		sum += x
	}
	c.n += sum
	return sum
}

// coldMake is not annotated: the analyzer must stay silent however much
// it allocates.
func coldMake(n int) []int {
	out := make([]int, n)
	fmt.Println(out)
	return out
}

var _ = coldMake
