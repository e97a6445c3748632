package core

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/xrand"
)

// slowAdvance is the pre-fix reference implementation of
// slidingCounter.advance: one iteration per elapsed bucket width.
func slowAdvance(s *slidingCounter, now time.Duration) {
	for s.headEnd <= now {
		s.head = (s.head + 1) % len(s.buckets)
		s.buckets[s.head] = 0
		s.headEnd += s.width
	}
}

// TestSlidingCounterIdleGapFastForward is the regression test for the
// idle-gap pathology: with a 1 s window, a gap of ~146 years used to cost
// ~4.6e18 loop iterations — it could not complete within any test timeout.
// The fast-forward must absorb the gap in O(buckets).
func TestSlidingCounterIdleGapFastForward(t *testing.T) {
	s := newSlidingCounter(time.Second, apdBuckets)
	s.add(0, 5)
	huge := time.Duration(1) << 62
	s.add(huge, 7)
	if got := s.sum(huge); got != 7 {
		t.Errorf("sum after idle gap = %v, want 7 (old samples must age out)", got)
	}
	// The ring must keep working normally after the jump.
	s.add(huge+50*time.Millisecond, 3)
	if got := s.sum(huge + 50*time.Millisecond); got != 10 {
		t.Errorf("sum after post-gap add = %v, want 10", got)
	}
	if got := s.sum(huge + 3*time.Second); got != 0 {
		t.Errorf("sum two windows later = %v, want 0", got)
	}
}

// TestSlidingCounterFastForwardMatchesSlowPath drives two counters through
// the same random schedule of adds — one using advance (with the fast
// path), one using the step-by-step reference — and requires identical
// state throughout. Gaps straddle the fast-path threshold in both
// directions.
func TestSlidingCounterFastForwardMatchesSlowPath(t *testing.T) {
	fast := newSlidingCounter(time.Second, apdBuckets)
	slow := newSlidingCounter(time.Second, apdBuckets)
	r := xrand.New(11)
	now := time.Duration(0)
	for i := 0; i < 500; i++ {
		// Mix sub-bucket steps, partial-window gaps, and multi-window
		// jumps (up to ~13 windows).
		gap := time.Duration(r.Intn(int(13_500 * time.Millisecond)))
		now += gap
		v := float64(r.Intn(100))
		fast.add(now, v)
		slowAdvance(&slow, now)
		slow.buckets[slow.head] += v

		if fast.head != slow.head || fast.headEnd != slow.headEnd {
			t.Fatalf("step %d (now=%v): head/headEnd (%d,%v) != reference (%d,%v)",
				i, now, fast.head, fast.headEnd, slow.head, slow.headEnd)
		}
		for b := range fast.buckets {
			if fast.buckets[b] != slow.buckets[b] {
				t.Fatalf("step %d (now=%v): bucket %d = %v, reference %v",
					i, now, b, fast.buckets[b], slow.buckets[b])
			}
		}
	}
}

// TestSlidingCounterExtremeTimestampOverflow is the regression test for
// the int64-horizon overflow: a jump to the largest representable
// timestamp used to step headEnd past MaxInt64 (headEnd += steps*width
// wrapped negative), after which every later advance mis-rotated the
// ring. The fast-forward now rebases headEnd from now and saturates at
// maxDuration.
func TestSlidingCounterExtremeTimestampOverflow(t *testing.T) {
	s := newSlidingCounter(time.Second, apdBuckets)
	s.add(0, 5)
	s.add(maxDuration, 7)
	if s.headEnd < 0 {
		t.Fatalf("headEnd = %v; wrapped negative on extreme jump", s.headEnd)
	}
	if got := s.sum(maxDuration); got != 7 {
		t.Errorf("sum at horizon = %v, want 7 (pre-jump samples must age out)", got)
	}
	// The head bucket is saturated at the horizon: further samples there
	// must accumulate instead of rotating the ring once per call.
	s.add(maxDuration, 3)
	if got := s.sum(maxDuration); got != 10 {
		t.Errorf("sum after second add at horizon = %v, want 10", got)
	}
}

// TestSlidingCounterIncrementalSaturation covers the other overflow site:
// a sub-window gap whose incremental catch-up would step headEnd past the
// horizon. The loop must saturate at maxDuration, not wrap.
func TestSlidingCounterIncrementalSaturation(t *testing.T) {
	s := newSlidingCounter(time.Second, apdBuckets)
	s.add(maxDuration-350*time.Millisecond, 2)
	s.add(maxDuration, 4) // gap < window: incremental path
	if s.headEnd != maxDuration {
		t.Fatalf("headEnd = %v, want saturation at maxDuration", s.headEnd)
	}
	if got := s.sum(maxDuration); got != 6 {
		t.Errorf("sum = %v, want 6 (both samples inside the window)", got)
	}
}

// TestPolicyExtremeTimestamp drives the horizon case through a real
// policy: observing a packet stamped MaxInt64 must neither hang nor
// poison the utilization estimate.
func TestPolicyExtremeTimestamp(t *testing.T) {
	p, err := NewBandwidthPolicy(1e6, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	p.Observe(packet.Packet{Time: 0, Dir: packet.Incoming, Length: 1000})
	p.Observe(packet.Packet{Time: maxDuration, Dir: packet.Incoming, Length: 500})
	// Only the horizon packet is in the window: 500 B = 4000 bits against
	// 1e6 bit/s over 1 s.
	if got := p.Utilization(maxDuration); math.Abs(got-0.004) > 1e-12 {
		t.Errorf("Utilization at horizon = %v, want 0.004", got)
	}
}

// TestPolicyIdleGap exercises the fast path through a real policy: a
// multi-hour quiet trace followed by one packet must return promptly and
// with a fresh window.
func TestPolicyIdleGap(t *testing.T) {
	p, err := NewBandwidthPolicy(1e6, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	p.Observe(packet.Packet{Time: 0, Dir: packet.Incoming, Length: 50000})
	quiet := 6 * time.Hour
	p.Observe(packet.Packet{Time: quiet, Dir: packet.Incoming, Length: 500})
	if got := p.Utilization(quiet); got >= 0.01 {
		t.Errorf("Utilization after 6h gap = %v; pre-gap burst leaked into the window", got)
	}
}

func TestSubBucketWindowRejected(t *testing.T) {
	if _, err := NewBandwidthPolicy(1e6, 5*time.Nanosecond); !errors.Is(err, ErrPolicyConfig) {
		t.Errorf("bandwidth sub-bucket window: %v, want ErrPolicyConfig", err)
	}
	if _, err := NewRatioPolicy(1, 3, 5*time.Nanosecond); !errors.Is(err, ErrPolicyConfig) {
		t.Errorf("ratio sub-bucket window: %v, want ErrPolicyConfig", err)
	}
	// The boundary window (one nanosecond per bucket) is accepted.
	if _, err := NewBandwidthPolicy(1e6, apdBuckets*time.Nanosecond); err != nil {
		t.Errorf("boundary window rejected: %v", err)
	}
}

// TestSlidingCounterClampsZeroWidth covers the defensive clamp in the
// primitive itself: even if constructed below the policy minimum, advance
// must terminate (pre-fix it spun forever on headEnd += 0).
func TestSlidingCounterClampsZeroWidth(t *testing.T) {
	s := newSlidingCounter(5*time.Nanosecond, apdBuckets) // width would be 0
	if s.width <= 0 {
		t.Fatalf("width = %v, want clamp to >= 1ns", s.width)
	}
	s.add(time.Second, 1) // would hang before the clamp
	if got := s.sum(time.Second); got != 1 {
		t.Errorf("sum = %v, want 1", got)
	}
}

func TestFilterResetFlushesAPDWindows(t *testing.T) {
	rp, err := NewRatioPolicy(1, 3, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	f := small(WithAPD(rp))
	// Incoming-only traffic saturates the ratio indicator at p = 1.
	for i := 0; i < 50; i++ {
		f.Process(inPkt(0, server, client, 80, uint16(i+1)))
	}
	if got := rp.DropProbability(0); got != 1 {
		t.Fatalf("pre-reset DropProbability = %v, want 1", got)
	}
	f.Reset()
	if got := rp.DropProbability(0); got != 0 {
		t.Errorf("post-reset DropProbability = %v, want 0 (windows must be flushed)", got)
	}
	// And the bandwidth policy likewise, through its own filter.
	bp, err := NewBandwidthPolicy(8, time.Second) // 1 admitted byte saturates
	if err != nil {
		t.Fatal(err)
	}
	g := small(WithAPD(bp))
	g.Process(outPkt(0, client, server, 4000, 80))
	rep := inPkt(0, server, client, 80, 4000) // matched, admitted, observed
	rep.Length = 60
	g.Process(rep)
	if got := bp.Utilization(0); got != 1 {
		t.Fatalf("pre-reset Utilization = %v, want 1", got)
	}
	g.Reset()
	if got := bp.Utilization(0); got != 0 {
		t.Errorf("post-reset Utilization = %v, want 0", got)
	}
}

// TestBandwidthObservesAdmittedIncomingOnly pins the §5.3 fidelity fix:
// bytes of incoming packets the filter drops must not count toward U_b.
func TestBandwidthObservesAdmittedIncomingOnly(t *testing.T) {
	// An 8 bit/s link over a 1 s window: a single admitted byte saturates
	// U_b at 1, making every subsequent unmatched drop deterministic.
	p, err := NewBandwidthPolicy(8, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	f := small(WithAPD(p))
	f.Process(outPkt(0, client, server, 4000, 80))
	reply := inPkt(0, server, client, 80, 4000)
	reply.Length = 100
	if v := f.Process(reply); v != filtering.Pass {
		t.Fatal("matched reply dropped")
	}
	if got := p.bytes.sum(0); got != 100 {
		t.Fatalf("admitted bytes = %v, want 100", got)
	}
	// Unmatched packet: U_b = 1 → dropped with certainty → not observed.
	junk := inPkt(0, server, client, 9, 9999)
	junk.Length = 5000
	if v := f.Process(junk); v != filtering.Drop {
		t.Fatal("unmatched packet admitted at U_b = 1")
	}
	if got := p.bytes.sum(0); got != 100 {
		t.Errorf("window counts %v bytes; dropped packet's 5000 leaked into U_b", got)
	}
	// A matched reply is still observed even at U_b = 1 (it passes).
	reply2 := inPkt(0, server, client, 80, 4000)
	reply2.Length = 40
	if v := f.Process(reply2); v != filtering.Pass {
		t.Fatal("matched reply dropped")
	}
	if got := p.bytes.sum(0); got != 140 {
		t.Errorf("window counts %v bytes, want 140", got)
	}
}

// TestStatsLeavesAPDWindow: reading Stats must not change a later verdict.
// Stats reads the drop probability at the filter's clock. A reply stamped
// behind that clock must still land in its own bucket of the byte window,
// and age out with it, whether or not someone read the filter in between.
func TestStatsLeavesAPDWindow(t *testing.T) {
	run := func(read bool) ([]filtering.Verdict, uint64) {
		// An 8 bit/s link over a 1 s window: one admitted byte saturates U_b.
		p, err := NewBandwidthPolicy(8, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		f := small(WithAPD(p), WithSeed(1))
		var got []filtering.Verdict
		step := func(pkt packet.Packet) {
			got = append(got, f.Process(pkt))
			if read {
				f.Stats()
			}
		}
		step(outPkt(0, client, server, 4000, 80))
		step(outPkt(2*time.Second, client, server, 4001, 80)) // the clock to 2 s
		reply := inPkt(1950*time.Millisecond, server, client, 80, 4000)
		reply.Length = 100
		step(reply) // capture time steps back: its bytes fill [1.9 s, 2 s)
		// Unmatched, a window after the reply's bucket: U_b is 0 again.
		step(inPkt(2950*time.Millisecond, server, client, 9, 9999))
		return got, f.Stats().APDSpared
	}
	quiet, quietSpared := run(false)
	read, readSpared := run(true)
	if fmt.Sprint(quiet) != fmt.Sprint(read) || quietSpared != readSpared {
		t.Errorf("verdicts %v (APD spared %d) with Stats reads, %v (%d) without", read, readSpared, quiet, quietSpared)
	}
	if want := filtering.Pass; quiet[3] != want {
		t.Errorf("unmatched packet after the window: %v, want %v (U_b = 0)", quiet[3], want)
	}
}
