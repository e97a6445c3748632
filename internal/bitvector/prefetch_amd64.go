package bitvector

// prefetchWords issues PREFETCHT0 on &words[(i&mask)>>6] for every i of idxs.
//
//go:noescape
func prefetchWords(words []uint64, mask uint64, idxs []uint64)
