package bitvector

import (
	"bytes"
	"testing"

	"bitmapfilter/internal/hashfam"
	"bitmapfilter/internal/xrand"
)

// model is the executable specification of a Vector: one bool per bit,
// indexes reduced modulo the length. The three multi-index kernels are
// checked against it rather than against each other.
type model []bool

func newModel(order uint) model { return make(model, 1<<order) }

func (m model) set(h uint64) bool {
	i := h & uint64(len(m)-1)
	was := m[i]
	m[i] = true
	return !was
}

func (m model) clear(h uint64) { m[h&uint64(len(m)-1)] = false }

func (m model) setAll(idxs []uint64) int {
	newly := 0
	for _, h := range idxs {
		if m.set(h) {
			newly++
		}
	}
	return newly
}

func (m model) testAll(idxs []uint64) bool {
	for _, h := range idxs {
		if !m[h&uint64(len(m)-1)] {
			return false
		}
	}
	return true
}

// check asserts that v holds exactly the model's bits and that its running
// count equals both the model's population and Σ OnesCount64 of the words.
func (m model) check(t *testing.T, v *Vector, label string) {
	t.Helper()
	var ones uint64
	for i, want := range m {
		if got := v.Test(uint64(i)); got != want {
			t.Fatalf("%s: bit %d = %v, model %v", label, i, got, want)
		}
		if want {
			ones++
		}
	}
	if got := v.PopCount(); got != ones {
		t.Fatalf("%s: PopCount = %d, model holds %d", label, got, ones)
	}
	checkCount(t, v, label)
}

// TestDuplicateIndexDifferential drives Set, SetAllVectors and TestAll
// against the []bool model on raw (unmasked) 64-bit index groups of every
// size from 0 to hashfam.MaxFunctions, for k = 1 and k = 4 vectors, with
// the cases a per-index loop can get wrong built in: an index repeated
// inside one group, distinct indexes sharing a 64-bit word, and vectors
// whose contents differ before the group lands. Bits and the running count
// are checked after every step.
func TestDuplicateIndexDifferential(t *testing.T) {
	const order = 10
	// sameWord returns an index in i's word with a (possibly) different bit.
	sameWord := func(i uint64, bit uint64) uint64 { return (i &^ 63) | (bit & 63) }

	i0 := uint64(0x1234567890abcdef)
	i1 := uint64(0x0fedcba987654321)
	i2 := uint64(0xdeadbeefcafef00d)
	groups := [][]uint64{
		{},                                     // empty
		{i0},                                   // singleton
		{i0, i0},                               // pure duplicate
		{i0, sameWord(i0, 7)},                  // same word, different bit
		{i0, i1, i2},                           // m=3, (likely) three words
		{i0, i0, i0},                           // m=3, all duplicate
		{i0, i0, i1},                           // m=3, first two collide
		{i0, i1, i0},                           // m=3, first and last collide
		{i0, i1, sameWord(i1, 9)},              // m=3, last two share a word
		{i0, sameWord(i0, 1), sameWord(i0, 2)}, // m=3, one word, three bits
		{i0, i1, i2, i0, sameWord(i2, 3)},      // m=5 with both kinds
	}
	r := xrand.New(21)
	for round := 0; round < 1000; round++ {
		g := make([]uint64, r.Intn(hashfam.MaxFunctions+1))
		for i := range g {
			switch {
			case i > 0 && r.Bool(0.3):
				g[i] = g[r.Intn(i)] // duplicate
			case i > 0 && r.Bool(0.3):
				g[i] = sameWord(g[r.Intn(i)], r.Uint64()) // same-word sibling
			default:
				g[i] = r.Uint64()
			}
		}
		groups = append(groups, g)
	}

	single, singleModel := MustNew(order), newModel(order)
	for gi, g := range groups {
		if got, want := single.TestAll(g), singleModel.testAll(g); got != want {
			t.Fatalf("group %d %x: TestAll before = %v, model %v", gi, g, got, want)
		}
		for _, h := range g {
			single.Set(h)
		}
		singleModel.setAll(g)
		if !single.TestAll(g) {
			t.Fatalf("group %d %x: TestAll false right after Set", gi, g)
		}
		singleModel.check(t, single, "Set")
	}

	for _, k := range []int{1, 4} {
		vecs, models := make([]*Vector, k), make([]model, k)
		for i := range vecs {
			vecs[i], models[i] = MustNew(order), newModel(order)
			// Desynchronize starting contents across vectors.
			for j := 0; j < i*29; j++ {
				h := r.Uint64()
				vecs[i].Set(h)
				models[i].set(h)
			}
		}
		for gi, g := range groups {
			SetAllVectors(vecs, g)
			for i := range vecs {
				models[i].setAll(g)
				models[i].check(t, vecs[i], "SetAllVectors")
			}

			// A probe that shares some of the group's indexes and adds
			// fresh ones: true only if the model says every bit is set.
			probe := append(append([]uint64(nil), g[:len(g)/2]...), r.Uint64(), r.Uint64())
			for i := range vecs {
				if got, want := vecs[i].TestAll(probe), models[i].testAll(probe); got != want {
					t.Fatalf("k=%d group %d vector %d: TestAll(%x) = %v, model %v", k, gi, i, probe, got, want)
				}
			}
		}
	}
}

// TestSetAllVectorsMatchesPerVector pins the fused k-vector mark against
// the unfused loop, including vectors whose prior contents differ (so the
// per-vector popcount deltas differ too).
func TestSetAllVectorsMatchesPerVector(t *testing.T) {
	r := xrand.New(33)
	const k = 4
	fused := make([]*Vector, k)
	loose := make([]*Vector, k)
	for i := range fused {
		fused[i] = MustNew(9)
		loose[i] = MustNew(9)
		// Desynchronize starting contents across vectors.
		for j := 0; j < i*17; j++ {
			h := r.Uint64()
			fused[i].Set(h)
			loose[i].Set(h)
		}
	}
	g := make([]uint64, 0, 12)
	for round := 0; round < 2000; round++ {
		g = g[:0]
		for i, n := 0, 1+r.Intn(12); i < n; i++ {
			g = append(g, r.Uint64())
		}
		SetAllVectors(fused, g)
		for _, v := range loose {
			for _, h := range g {
				v.Set(h)
			}
		}
		for i := range fused {
			if !fused[i].Equal(loose[i]) || fused[i].PopCount() != loose[i].PopCount() {
				t.Fatalf("round %d: vector %d diverged (counts %d vs %d)",
					round, i, fused[i].PopCount(), loose[i].PopCount())
			}
		}
	}
}

// FuzzCountCoherence drives a vector through an arbitrary interleaving of
// every mutator and asserts, after every operation, that it holds exactly
// the bits of a []bool model run through the same operations and that the
// running count invariant the whole accounting layer rests on holds:
// v.count == Σ OnesCount64(words). The ops byte string is the fuzz vector;
// each op consumes a few bytes of operand.
func FuzzCountCoherence(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 0xff, 3, 3, 9})
	f.Add([]byte{2, 2, 2, 7, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const order = 8
		v, vm := MustNew(order), newModel(order)
		other, om := MustNew(order), newModel(order)
		second, sm := MustNew(order), newModel(order)
		vecs := []*Vector{v, second}
		r := xrand.New(5)
		next := func(i *int) uint64 {
			if *i >= len(ops) {
				return r.Uint64()
			}
			b := uint64(ops[*i])
			*i++
			return b * 0x9e3779b97f4a7c15
		}
		group := make([]uint64, 0, hashfam.MaxFunctions)
		for i := 0; i < len(ops); {
			op := ops[i]
			i++
			group = group[:0]
			for n := 0; n < int(op)%(hashfam.MaxFunctions+1); n++ {
				group = append(group, next(&i))
			}
			switch op % 8 {
			case 0:
				h := next(&i)
				if got, want := v.Set(h), vm.set(h); got != want {
					t.Fatalf("op %d (#%d): Set = %v, model %v", op, i, got, want)
				}
			case 1:
				h := next(&i)
				v.Clear(h)
				vm.clear(h)
			case 2:
				newly := 0
				for _, h := range group {
					if v.Set(h) {
						newly++
					}
				}
				if want := vm.setAll(group); newly != want {
					t.Fatalf("op %d (#%d): Set over the group newly = %d, model %d", op, i, newly, want)
				}
			case 3:
				if got, want := v.TestAll(group), vm.testAll(group); got != want {
					t.Fatalf("op %d (#%d): TestAll = %v, model %v", op, i, got, want)
				}
			case 4:
				SetAllVectors(vecs, group)
				vm.setAll(group)
				sm.setAll(group)
			case 5:
				h := next(&i)
				other.Set(h)
				om.set(h)
			case 6:
				var buf bytes.Buffer
				if _, err := other.WriteTo(&buf); err != nil {
					t.Fatal(err)
				}
				if _, err := v.ReadFrom(&buf); err != nil {
					t.Fatal(err)
				}
				copy(vm, om)
			case 7:
				v.Reset()
				clear(vm)
			}
			vm.check(t, v, "v")
			om.check(t, other, "other")
			sm.check(t, second, "second")
		}
	})
}
