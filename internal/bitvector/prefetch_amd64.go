package bitvector

// prefetchPair issues PREFETCHT0 on &words[(g&mask)>>6] for g = h1 + i·h2,
// 0 ≤ i < m.
//
//go:noescape
func prefetchPair(words []uint64, mask, h1, h2 uint64, m int)
