package spec

import (
	"time"

	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/hashfam"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/xrand"
)

// Vector is one bit vector of 2ⁿ bits as the set of its set bits, Ones: an
// index is reduced modulo 2ⁿ, and a clear costs what is set.
type Vector struct {
	Mask uint64 // 2ⁿ − 1
	Ones map[uint64]struct{}
}

// Set sets bit h and reports whether it was clear.
func (v Vector) Set(h uint64) (was0 bool) {
	n := len(v.Ones)
	v.Ones[h&v.Mask] = struct{}{}
	return len(v.Ones) > n
}

// Test reports bit h.
func (v Vector) Test(h uint64) bool {
	_, set := v.Ones[h&v.Mask]
	return set
}

// Config is a filter's geometry and policies: CurrentOnly and FullTuple are
// the ablations, and APD the §5.3 dropping (window.go).
type Config struct {
	Order                  uint
	Vectors, Hashes        int
	RotateEvery            time.Duration
	Seed                   uint64
	CurrentOnly, FullTuple bool
	APD                    APD
}

// Filter is one {k×n}-bitmap filter: Bits[Idx] is the current vector, and
// Next the next rotation due.
type Filter struct {
	Config
	Bits                        []Vector
	Idx                         int
	Now, Next                   time.Duration
	Counters                    filtering.Counters
	Rotations, Marks, APDSpared uint64
	fam                         *hashfam.Family
	coin                        *xrand.Rand
	window                      window
}

// New is an empty filter at time 0.
func New(c Config) *Filter {
	f := &Filter{Config: c, Next: c.RotateEvery, fam: hashfam.MustNew(c.Hashes, c.Seed)}
	for range c.Vectors {
		f.Bits = append(f.Bits, Vector{1<<c.Order - 1, map[uint64]struct{}{}})
	}
	f.Restore()
	return f
}

// Restore drops what a snapshot does not keep: the APD window, the coin's
// place in its stream and the spared count.
func (f *Filter) Restore() {
	f.window, f.APDSpared, f.coin = window{}, 0, xrand.New(f.Seed^0xb17a9f11ce5)
}

// Rotate is b.rotate: the current vector is cleared and the next is current.
func (f *Filter) Rotate() {
	clear(f.Bits[f.Idx].Ones)
	f.Idx, f.Rotations = (f.Idx+1)%f.Vectors, f.Rotations+1
}

// Advance fires every rotation due by t, one vector at a time; a gap of k
// rotations or more clears every vector. Time never runs backwards.
func (f *Filter) Advance(t time.Duration) {
	for f.Now = max(f.Now, t); f.Next <= f.Now; f.Next += f.RotateEvery {
		if gap := int((f.Now-f.Next)/f.RotateEvery) + 1; gap >= f.Vectors {
			for _, v := range f.Bits {
				clear(v.Ones)
			}
			f.Idx, f.Rotations = (f.Idx+gap-1)%f.Vectors, f.Rotations+uint64(gap-1)
			f.Next += time.Duration(gap-1) * f.RotateEvery
		}
		f.Rotate()
	}
}

// Indexes are h1 + i·h2, i < m, for the key of a packet (tup, dir): its
// partial tuple, or the full one in the outgoing orientation.
func (f *Filter) Indexes(tup packet.Tuple, dir packet.Direction) []uint64 {
	key := tup.IncomingKey()
	if dir == packet.Outgoing {
		key = tup.OutgoingKey()
	}
	b := key[:]
	if f.FullTuple {
		if dir == packet.Incoming {
			tup = tup.Reverse()
		}
		full := tup.FullKey()
		b = full[:]
	}
	h1, h2 := f.fam.Base(b)
	idx := make([]uint64, f.Hashes)
	for i := range idx {
		idx[i] = h1 + uint64(i)*h2
	}
	return idx
}

// Mark sets the indexes in all k vectors, or the current one under CurrentOnly.
func (f *Filter) Mark(idx []uint64) {
	f.Marks++
	for i, v := range f.Bits {
		for _, h := range idx {
			if !f.CurrentOnly || i == f.Idx {
				v.Set(h)
			}
		}
	}
}

// Process is Algorithm 2: under APD, signal packets do not mark, the coin is
// tossed for unmatched incoming packets only, and only what passes is observed.
func (f *Filter) Process(p packet.Packet) filtering.Verdict {
	f.Advance(p.Time)
	v, idx, apd := filtering.Pass, f.Indexes(p.Tuple, p.Dir), f.APD.Window > 0
	if p.Dir == packet.Outgoing && (!apd || !p.IsSignal()) {
		f.Mark(idx)
	}
	for _, h := range idx {
		if p.Dir == packet.Incoming && !f.Bits[f.Idx].Test(h) {
			v = filtering.Drop
		}
	}
	if v == filtering.Drop && apd && !f.coin.Bool(f.APD.dropProbability(&f.window, p.Time)) {
		v, f.APDSpared = filtering.Pass, f.APDSpared+1
	}
	if v == filtering.Pass && apd {
		f.window[p.Dir].observe(f.APD, p)
	}
	f.Counters.Count(p, v)
	return v
}
