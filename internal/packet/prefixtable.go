package packet

// PrefixTable is the data plane's one answer to "which configured prefix
// owns this address": an immutable longest-prefix-match table over IPv4
// prefixes, so direction classification (is this address a client's?) and
// tenant routing (which client's?) cost the same whether an operator
// configures one subnet or thousands.
//
// It is an 8-bit-stride multibit trie with leaf pushing, flattened into
// one []int32: node n occupies nodes[n*256 : (n+1)*256], indexed by the
// next address octet. An entry is a prefix index (>= 0), noMatch, or a
// reference to a child node (<= -2, the complement of its node number —
// the root is node 0 and never a child, so ^0 is free to mean noMatch).
// Leaf pushing copies a shorter prefix's answer into every entry a longer
// one does not override, so a lookup never backtracks or remembers a
// "best so far": it follows child references until it reads an answer,
// which for 32-bit addresses is at most four dependent loads.
//
// Memory: every prefix adds at most one node per stride below the root
// (none for /0../8, three for /25../32), so nodes <= 1 + 3*len(prefixes)
// at 1 KiB each; 64 /16s under one /8 are two nodes.
//
// A table is built once and never mutated, so lookups need no
// synchronization; reconfiguring means building a new table. The zero
// value is not usable — construct with NewPrefixTable.
type PrefixTable struct {
	nodes []int32
}

const (
	nodeEntries = 256
	noMatch     = int32(-1)
)

// NewPrefixTable compiles prefixes into a table whose Lookup returns
// indexes into that slice. Overlapping prefixes resolve to the longest,
// duplicates to the lowest index. Prefixes are taken as PrefixFrom would
// canonicalize them (host bits ignored, lengths above 32 clamped), so
// construction cannot fail; callers for whom a duplicate is a
// configuration error check that themselves.
func NewPrefixTable(prefixes []Prefix) *PrefixTable {
	t := &PrefixTable{nodes: make([]int32, nodeEntries)}
	for i := range t.nodes {
		t.nodes[i] = noMatch
	}
	// Shortest first, so by the time a prefix is written every entry in
	// its range holds a shorter prefix's answer (to overwrite) and never
	// a child reference (those come only from longer prefixes); within
	// one length highest index first, so of two duplicates the lowest
	// index is written last and wins.
	for bits := 0; bits <= 32; bits++ {
		for i := len(prefixes) - 1; i >= 0; i-- {
			if p := PrefixFrom(prefixes[i].Base, prefixes[i].Bits); int(p.Bits) == bits {
				t.insert(p, int32(i))
			}
		}
	}
	return t
}

// insert writes canonical prefix p -> idx, given that every prefix
// inserted before it is no longer than p.
func (t *PrefixTable) insert(p Prefix, idx int32) {
	node := 0
	shift := 24
	for ; int(p.Bits) > 32-shift; shift -= 8 {
		slot := node*nodeEntries + int(p.Base>>shift)&0xff
		if t.nodes[slot] >= noMatch {
			// Push the answer that covered this octet down into a
			// fresh child, then hang the child here.
			child := len(t.nodes) / nodeEntries
			pushed := t.nodes[slot]
			for range nodeEntries {
				t.nodes = append(t.nodes, pushed)
			}
			t.nodes[slot] = ^int32(child)
		}
		node = int(^t.nodes[slot])
	}
	// p ends inside this node's octet: it owns 2^(free bits) consecutive
	// entries.
	first := node*nodeEntries + int(p.Base>>shift)&0xff
	span := 1 << (32 - shift - int(p.Bits))
	for slot := first; slot < first+span; slot++ {
		t.nodes[slot] = idx
	}
}

// Lookup returns the index of the longest prefix containing a, or -1 if
// no prefix covers it. At most four dependent loads; no lock, no
// allocation.
//
//bf:hotpath
func (t *PrefixTable) Lookup(a Addr) int32 {
	e := t.nodes[a>>24]
	for shift := uint(16); e < noMatch; shift -= 8 {
		e = t.nodes[int(^e)*nodeEntries+int(a>>shift)&0xff]
	}
	return e
}

// ClassifySlot tells which way a packet with tuple tu crosses the edge the
// table's prefixes describe, and which prefix said so: a source inside any
// prefix makes it Outgoing, otherwise a destination inside makes it
// Incoming, and slot is Lookup of that client-side address — a caller that
// routes by the same table need not look the packet up again. When neither
// address is a client's the packet touches no client network (transit the
// edge would never forward here): slot is -1 and there is no direction.
//
//bf:hotpath
func (t *PrefixTable) ClassifySlot(tu Tuple) (dir Direction, slot int32) {
	if slot = t.Lookup(tu.Src); slot >= 0 {
		return Outgoing, slot
	}
	if slot = t.Lookup(tu.Dst); slot >= 0 {
		return Incoming, slot
	}
	return 0, noMatch
}
