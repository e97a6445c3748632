//go:build !amd64

package bitvector

// prefetchWords has no portable form: Prefetch does nothing here.
func prefetchWords(words []uint64, mask uint64, idxs []uint64) {}
