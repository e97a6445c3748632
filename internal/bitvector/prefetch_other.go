//go:build !amd64

package bitvector

// prefetchPair has no portable form: PrefetchPair does nothing here.
func prefetchPair(words []uint64, mask, h1, h2 uint64, m int) {}
