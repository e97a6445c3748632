package bitvector

// Huge pages for vectors that outgrow L2. At order ≥ hugeMinOrder every
// bit the judge touches is a cache miss, and on 4 KiB pages most are a TLB
// miss too: 128 MiB of vectors is 32,768 pages against a TLB of about
// 2,000 entries, so each touch also walks the page tables. allocWords
// starts such a vector's words on a 2 MiB boundary and asks the kernel to
// back them with transparent huge pages (MADV_HUGEPAGE): the same memory,
// still faulted lazily, one fault per 2 MiB instead of per 4 KiB. A kernel
// with THP off refuses nothing and hands out 4 KiB pages as before.
//
// This is the package's only use of unsafe, and it is address arithmetic:
// the offset of the first 2 MiB boundary in a heap slice, and a byte view
// of the words for madvise. The Go heap owns the memory — nothing is
// mapped, unmapped or finalized here — and the up to 2 MiB of slack around
// the aligned words is never touched, so it never becomes resident.

import (
	"syscall"
	"unsafe"
)

const (
	// hugeMinOrder is the smallest order whose vectors get huge pages: one
	// vector of 2^n bits outgrows the 2 MiB L2, the same line as
	// core.prefetchMinOrder, where the judge starts prefetching. Below it
	// the vector stays in cache and order 24 measured no gain.
	hugeMinOrder = 25
	hugePage     = 2 << 20
)

// allocWords returns the zeroed words of a vector of the given order, on
// 2 MiB pages when the order is at least hugeMinOrder.
func allocWords(order uint) []uint64 {
	n := 1 << (order - 6)
	if order < hugeMinOrder {
		return make([]uint64, n)
	}
	buf := make([]uint64, n+hugePage/8)
	off := int((-uintptr(unsafe.Pointer(&buf[0])) & (hugePage - 1)) / 8)
	words := buf[off : off+n : off+n]
	_ = syscall.Madvise(unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), 8*n), syscall.MADV_HUGEPAGE)
	return words
}
