package pump

import (
	"testing"
	"time"
)

// offer feeds batches of the given sizes; batch b's packets carry the
// latency b ns, so a sample's value says which batch it arrived in.
func offer(s *reservoir, sizes []int) {
	for b, n := range sizes {
		s.observe(time.Duration(b*n)*time.Nanosecond, n)
	}
}

func newReservoir() *reservoir {
	r := new(reservoir)
	r.init()
	return r
}

func TestReservoirFillsAndCountsArrivals(t *testing.T) {
	s := newReservoir()
	offer(s, []int{1, 511, 0, 512, 2000}) // 3024 < reservoirSize
	if len(s.samples) != 3024 || s.seen != 3024 {
		t.Fatalf("partial fill: %d samples, seen %d, want 3024 of each", len(s.samples), s.seen)
	}
	offer(s, []int{5000, 512, 512})
	if len(s.samples) != reservoirSize {
		t.Errorf("reservoir holds %d samples, want %d", len(s.samples), reservoirSize)
	}
	if want := uint64(3024 + 5000 + 512 + 512); s.seen != want {
		t.Errorf("seen = %d, want %d frames offered", s.seen, want)
	}
}

// TestReservoirBatchEqualsSingles pins the batch contract exactly: the
// skip draws depend on the arrival count alone, so with the fixed seed a
// batch of n and n single observations leave identical reservoirs — and
// therefore identical distributions.
func TestReservoirBatchEqualsSingles(t *testing.T) {
	sizes := []int{100, 3000, 2000, 512, 512, 1, 7, 40000, 512, 90000, 3}
	batched, singles := newReservoir(), newReservoir()
	offer(batched, sizes)
	for b, n := range sizes {
		for i := 0; i < n; i++ {
			singles.observe(time.Duration(b)*time.Nanosecond, 1)
		}
	}
	if batched.seen != singles.seen {
		t.Fatalf("seen: batched %d, singles %d", batched.seen, singles.seen)
	}
	for i := range batched.samples {
		if batched.samples[i] != singles.samples[i] {
			t.Fatalf("slot %d: batched %v, singles %v", i, batched.samples[i], singles.samples[i])
		}
	}
}

// TestReservoirWeighsPackets checks the sample is uniform over packets:
// after 64 equal batches every batch should own 1/64 of the reservoir,
// the first (which filled it) no more than the last. Chi-square against
// that, 63 degrees of freedom, critical value at p = 0.001.
func TestReservoirWeighsPackets(t *testing.T) {
	const batches, perBatch = 64, 4 * reservoirSize
	s := newReservoir()
	sizes := make([]int, batches)
	for i := range sizes {
		sizes[i] = perBatch
	}
	offer(s, sizes)
	var hist [batches]float64
	for _, v := range s.samples {
		hist[int(v)]++
	}
	const want = float64(reservoirSize) / batches
	var chi2 float64
	for _, got := range hist {
		chi2 += (got - want) * (got - want) / want
	}
	if chi2 > 103.4 {
		t.Errorf("chi-square %.1f over %d batches (critical 103.4): %v", chi2, batches, hist)
	}
}
