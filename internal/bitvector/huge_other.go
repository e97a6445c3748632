//go:build !linux

package bitvector

// allocWords returns the zeroed words of a vector of the given order. Huge
// pages are asked for on Linux only (huge_linux.go).
func allocWords(order uint) []uint64 {
	return make([]uint64, 1<<(order-6))
}
