package pump

import (
	"sort"
	"sync"
	"testing"
	"time"
)

// latencyBatch is one observe call: n packets over elapsed.
type latencyBatch struct {
	elapsed time.Duration
	n       int
}

// latencyBatches spans 2 ns to about 16 ms per packet (23 octaves) over
// batch sizes from 0 to 3000, elapsed times not a multiple of n included.
func latencyBatches() []latencyBatch {
	sizes := []int{0, 1, 2, 7, 64, 512, 513, 3000}
	var out []latencyBatch
	for i := 0; i < 400; i++ {
		n := sizes[i%len(sizes)]
		per := time.Duration(2<<(i%23) + i*37%1000)
		out = append(out, latencyBatch{per*time.Duration(n) + time.Duration(i%7), n})
	}
	return out
}

// TestLatencyQuantilesWithinBucketBound checks the reported quantiles
// against the exact packet-weighted ones: never below, at most 1/latencySub
// above.
func TestLatencyQuantilesWithinBucketBound(t *testing.T) {
	p := new(Pump)
	if s := p.Snapshot(); s.LatencyP50 != 0 || s.LatencyP99 != 0 {
		t.Fatalf("before any observation: p50 %v, p99 %v, want 0", s.LatencyP50, s.LatencyP99)
	}
	var packets []time.Duration
	for _, b := range latencyBatches() {
		p.latency.observe(b.elapsed, b.n)
		for i := 0; i < b.n; i++ {
			packets = append(packets, b.elapsed/time.Duration(b.n))
		}
	}
	sort.Slice(packets, func(i, j int) bool { return packets[i] < packets[j] })
	if lo, hi := packets[0], packets[len(packets)-1]; hi < lo<<6 {
		t.Fatalf("latencies %v..%v span less than 6 octaves", lo, hi)
	}
	s := p.Snapshot()
	for _, c := range []struct {
		q   float64
		got time.Duration
	}{{0.5, s.LatencyP50}, {0.99, s.LatencyP99}, {0, p.latency.quantile(0)}, {0.9, p.latency.quantile(0.9)}, {0.999, p.latency.quantile(0.999)}} {
		exact := packets[int(c.q*float64(len(packets)))]
		if c.got < exact || c.got > exact+exact/latencySub {
			t.Errorf("q=%v: %v, exact %v (want within [exact, exact·(1+1/%d)])", c.q, c.got, exact, latencySub)
		}
	}
}

// TestLatencyBatchEqualsSingles pins the batch contract: a batch of n
// leaves the same bucket counts as n single observations of its average.
func TestLatencyBatchEqualsSingles(t *testing.T) {
	var batched, singles histogram
	for _, b := range latencyBatches() {
		batched.observe(b.elapsed, b.n)
		for i := 0; i < b.n; i++ {
			singles.observe(b.elapsed/time.Duration(b.n), 1)
		}
	}
	for i := range batched.counts {
		if b, s := batched.counts[i].Load(), singles.counts[i].Load(); b != s {
			t.Errorf("bucket %d (≤ %d ns): batched %d, singles %d", i, latencyUpper(i), b, s)
		}
	}
}

// TestLatencyStatsWhileObserving has four goroutines observe while
// Snapshot reads (run it under -race): every packet lands in a bucket, and
// the quantiles read mid-stream are bucket bounds of observed values.
func TestLatencyStatsWhileObserving(t *testing.T) {
	const goroutines, batches = 4, 2000
	p := new(Pump)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				p.latency.observe(time.Duration(100+i)*time.Microsecond, 10)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	lo, hi := 10*time.Microsecond, time.Duration(10+batches/10)*time.Microsecond
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		s := p.Snapshot()
		for _, v := range []time.Duration{s.LatencyP50, s.LatencyP99} {
			if v != 0 && (v < lo || v > hi+hi/latencySub) {
				t.Fatalf("quantile %v outside the observed %v..%v", v, lo, hi)
			}
		}
	}
	var total uint64
	for i := range p.latency.counts {
		total += p.latency.counts[i].Load()
	}
	if total != goroutines*batches*10 {
		t.Errorf("%d packets counted, want %d", total, goroutines*batches*10)
	}
}
