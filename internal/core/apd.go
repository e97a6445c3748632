package core

import (
	"errors"
	"fmt"
	"time"

	"bitmapfilter/internal/packet"
)

// Adaptive packet dropping (APD, §5.3). When the bitmap filter is deployed
// purely against bandwidth attacks, unmatched incoming packets need not all
// be dropped: an APD-enabled filter drops them with a probability derived
// from an indicator of how stressed the link is. The paper gives two
// indicator designs, both implemented here:
//
//  1. Bandwidth utilization: drop with probability U_b, the monitored
//     utilization of the protected link.
//  2. In/out packet ratio: with thresholds l < h and r = P_in / P_out, drop
//     with probability 0 below l, (r−l)/(h−l) between, and 1 at or above h.

// ErrPolicyConfig is returned for invalid APD policy parameters.
var ErrPolicyConfig = errors.New("core: invalid APD policy configuration")

// DropPolicy computes the probability with which a should-be-dropped
// incoming packet is actually dropped.
type DropPolicy interface {
	// Observe feeds traffic to the policy so it can maintain its
	// indicator. The filter calls it for every outgoing packet and for
	// every ADMITTED incoming packet; incoming packets the filter drops
	// are deliberately not observed. The §5.3 indicators estimate the
	// load on the protected downstream link, and a dropped packet never
	// reaches that link — counting it would inflate U_b (and the in/out
	// ratio) under exactly the floods APD is meant to ride out, driving
	// the drop probability to 1 even though the link itself is idle.
	Observe(pkt packet.Packet)
	// DropProbability returns the current drop probability in [0, 1].
	DropProbability(now time.Duration) float64
	// Name identifies the policy in reports.
	Name() string
}

// PolicyResetter is an optional extension of DropPolicy. Policies that
// accumulate windowed state implement Reset so Filter.Reset can flush
// pre-incident traffic out of the indicator along with the bitmap; both
// built-in policies implement it.
type PolicyResetter interface {
	// Reset discards all accumulated indicator state.
	Reset()
}

// PolicyCloner is an optional extension of DropPolicy. ClonePolicy returns
// an independent policy with the same configuration and fresh (empty)
// indicator state. NewSharded relies on it: every shard receives its own
// clone, so independently locked shards never share mutable sliding-window
// state. A policy that accumulates state (PolicyResetter) but cannot clone
// is rejected by NewSharded with ErrConfig. Both built-in policies
// implement it.
type PolicyCloner interface {
	// ClonePolicy returns a configuration-identical policy with zeroed
	// indicator state.
	ClonePolicy() DropPolicy
}

// PolicyShardScaler is an optional extension of DropPolicy for indicators
// whose magnitude depends on how much of the traffic they observe.
// NewSharded calls ScaleForShards(S) on every per-shard clone: the
// flow-key routing spreads flows ~uniformly, so one shard sees a 1/S
// partition of the load. BandwidthPolicy implements it by dividing the
// link capacity by S, which keeps the per-shard U_b an estimator of the
// global utilization; RatioPolicy needs no scaling because the in/out
// ratio of a uniform partition already estimates the global ratio.
type PolicyShardScaler interface {
	// ScaleForShards rescales the indicator for a filter partitioned
	// into the given number of shards.
	ScaleForShards(shards int)
}

// slidingCounter accumulates values over a sliding time window in a ring of
// sub-buckets, on a virtual clock: epoch e, the span [e·width, (e+1)·width),
// lives in buckets[e mod n], and newest is the epoch of the newest bucket. A
// sample stamped behind it counts in it, and a sum counts the n epochs up to
// the later of now's and newest.
type slidingCounter struct {
	buckets []float64
	width   time.Duration // width of one bucket
	newest  int64         // ⌊t/width⌋ of the newest bucket
}

func newSlidingCounter(window time.Duration, buckets int) slidingCounter {
	if buckets < 1 {
		// Zero would divide by zero below; negative would panic in make.
		// The policy constructors validate their bucket counts, but the
		// primitive must be safe standing alone.
		buckets = 1
	}
	width := window / time.Duration(buckets)
	if width <= 0 {
		// A zero width would divide by zero in every add and sum. The
		// policy constructors reject such windows; clamp here too so the
		// primitive is safe on its own.
		width = 1
	}
	return slidingCounter{buckets: make([]float64, buckets), width: width}
}

// add counts v in now's epoch, or in the newest if now's is behind it. A
// step forward zeroes the buckets it uncovers: at most n, however long the
// idle gap.
func (s *slidingCounter) add(now time.Duration, v float64) {
	n := int64(len(s.buckets))
	if e := int64(now / s.width); e > s.newest {
		for i := range min(e-s.newest, n) {
			s.buckets[(s.newest+1+i)%n] = 0
		}
		s.newest = e
	}
	s.buckets[s.newest%n] += v
}

// sum adds up epochs newest … newest−(n−1−age), age the epochs now is past
// newest: the n epochs up to now's. It reads without moving the ring, so
// reading a policy (a Stats scrape) never changes what a later packet sees.
func (s *slidingCounter) sum(now time.Duration) float64 {
	n := int64(len(s.buckets))
	age := max(int64(now/s.width)-s.newest, 0)
	var total float64
	for e := max(s.newest-(n-1-age), 0); e <= s.newest; e++ {
		total += s.buckets[e%n]
	}
	return total
}

// window returns the total time span covered by the counter.
func (s *slidingCounter) window() time.Duration {
	return s.width * time.Duration(len(s.buckets))
}

// reset discards all samples and restarts the ring at the time origin.
func (s *slidingCounter) reset() {
	clear(s.buckets)
	s.newest = 0
}

const apdBuckets = 10

// minPolicyWindow is the smallest accepted indicator window: one
// nanosecond per sub-bucket. Anything shorter would collapse the bucket
// width to zero.
const minPolicyWindow = apdBuckets * time.Nanosecond

// BandwidthPolicy is APD design 1: the edge router monitors the bandwidth
// utilization U_b of the protected link and drops unmatched packets with
// probability U_b.
type BandwidthPolicy struct {
	capacityBits float64 // link capacity in bits/second
	bytes        slidingCounter
}

var (
	_ DropPolicy        = (*BandwidthPolicy)(nil)
	_ PolicyResetter    = (*BandwidthPolicy)(nil)
	_ PolicyCloner      = (*BandwidthPolicy)(nil)
	_ PolicyShardScaler = (*BandwidthPolicy)(nil)
)

// NewBandwidthPolicy returns a bandwidth-utilization policy for a link of
// the given capacity in bits per second, averaged over the given window.
func NewBandwidthPolicy(capacityBitsPerSec float64, window time.Duration) (*BandwidthPolicy, error) {
	if capacityBitsPerSec <= 0 {
		return nil, fmt.Errorf("%w: capacity %v", ErrPolicyConfig, capacityBitsPerSec)
	}
	if window < minPolicyWindow {
		return nil, fmt.Errorf("%w: window %v shorter than %v", ErrPolicyConfig, window, minPolicyWindow)
	}
	return &BandwidthPolicy{
		capacityBits: capacityBitsPerSec,
		bytes:        newSlidingCounter(window, apdBuckets),
	}, nil
}

// Name implements DropPolicy.
func (p *BandwidthPolicy) Name() string { return "apd-bandwidth" }

// Observe implements DropPolicy: incoming bytes count against the link.
// The filter only feeds it admitted incoming packets (see the DropPolicy
// contract), so U_b measures what the downstream link actually carries.
func (p *BandwidthPolicy) Observe(pkt packet.Packet) {
	if pkt.Dir == packet.Incoming {
		p.bytes.add(pkt.Time, float64(pkt.Length))
	}
}

// Reset implements PolicyResetter: it discards the byte window.
func (p *BandwidthPolicy) Reset() { p.bytes.reset() }

// ClonePolicy implements PolicyCloner: the clone measures the same link
// capacity over the same window, starting from an empty byte window.
func (p *BandwidthPolicy) ClonePolicy() DropPolicy {
	return &BandwidthPolicy{
		capacityBits: p.capacityBits,
		bytes:        newSlidingCounter(p.bytes.window(), len(p.bytes.buckets)),
	}
}

// ScaleForShards implements PolicyShardScaler: a shard observes a 1/S
// partition of the flows, so it measures its bytes against 1/S of the link
// capacity. The per-shard U_b then estimates the global utilization, and
// the mean across shards equals exactly the U_b one unsharded policy would
// compute from the combined traffic (before the per-shard clamp at 1).
func (p *BandwidthPolicy) ScaleForShards(shards int) {
	p.capacityBits /= float64(shards)
}

// Capacity returns the link capacity in bits per second the policy
// measures against. Per-shard clones report their 1/S share.
func (p *BandwidthPolicy) Capacity() float64 { return p.capacityBits }

// Utilization returns U_b, the observed fraction of link capacity in use.
func (p *BandwidthPolicy) Utilization(now time.Duration) float64 {
	bits := p.bytes.sum(now) * 8
	u := bits / (p.capacityBits * p.bytes.window().Seconds())
	if u > 1 {
		u = 1
	}
	return u
}

// DropProbability implements DropPolicy: probability U_b.
func (p *BandwidthPolicy) DropProbability(now time.Duration) float64 {
	return p.Utilization(now)
}

// RatioPolicy is APD design 2: the indicator is r = P_in / P_out over a
// window, with drop probability 0 for r < l, (r−l)/(h−l) for l ≤ r < h and
// 1 for r ≥ h.
type RatioPolicy struct {
	low, high float64
	in, out   slidingCounter
}

var (
	_ DropPolicy     = (*RatioPolicy)(nil)
	_ PolicyResetter = (*RatioPolicy)(nil)
	_ PolicyCloner   = (*RatioPolicy)(nil)
)

// NewRatioPolicy returns an in/out-ratio policy with thresholds l < h over
// the given window.
func NewRatioPolicy(low, high float64, window time.Duration) (*RatioPolicy, error) {
	if low < 0 || high <= low {
		return nil, fmt.Errorf("%w: thresholds l=%v h=%v", ErrPolicyConfig, low, high)
	}
	if window < minPolicyWindow {
		return nil, fmt.Errorf("%w: window %v shorter than %v", ErrPolicyConfig, window, minPolicyWindow)
	}
	return &RatioPolicy{
		low:  low,
		high: high,
		in:   newSlidingCounter(window, apdBuckets),
		out:  newSlidingCounter(window, apdBuckets),
	}, nil
}

// Name implements DropPolicy.
func (p *RatioPolicy) Name() string { return "apd-ratio" }

// Observe implements DropPolicy.
func (p *RatioPolicy) Observe(pkt packet.Packet) {
	if pkt.Dir == packet.Incoming {
		p.in.add(pkt.Time, 1)
	} else {
		p.out.add(pkt.Time, 1)
	}
}

// Reset implements PolicyResetter: it discards both packet-count windows.
func (p *RatioPolicy) Reset() {
	p.in.reset()
	p.out.reset()
}

// ClonePolicy implements PolicyCloner: same thresholds and window, empty
// packet-count windows. No PolicyShardScaler is needed: routing keeps a
// flow's in and out packets in the same shard, so a shard's in/out ratio
// over its 1/S flow partition estimates the global ratio unchanged.
func (p *RatioPolicy) ClonePolicy() DropPolicy {
	return &RatioPolicy{
		low:  p.low,
		high: p.high,
		in:   newSlidingCounter(p.in.window(), len(p.in.buckets)),
		out:  newSlidingCounter(p.out.window(), len(p.out.buckets)),
	}
}

// Ratio returns r = P_in / P_out over the window. With no outgoing traffic
// the ratio is treated as +inf (mapped to the high threshold) as soon as
// any incoming traffic exists.
func (p *RatioPolicy) Ratio(now time.Duration) float64 {
	in := p.in.sum(now)
	out := p.out.sum(now)
	if out == 0 {
		if in == 0 {
			return 0
		}
		return p.high
	}
	return in / out
}

// DropProbability implements DropPolicy.
func (p *RatioPolicy) DropProbability(now time.Duration) float64 {
	r := p.Ratio(now)
	switch {
	case r < p.low:
		return 0
	case r >= p.high:
		return 1
	default:
		return (r - p.low) / (p.high - p.low)
	}
}
