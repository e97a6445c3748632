// Package core implements the bitmap filter, the paper's primary
// contribution (§3): a composite of k Bloom-filter bit vectors of 2^n bits
// ("a {k×n}-bitmap filter") installed at the entry point of a client
// network.
//
// Operation (Algorithms 1 and 2 of the paper):
//
//   - Every outgoing packet hashes its partial address tuple
//     {source-address, source-port, destination-address} with m shared hash
//     functions and marks the resulting bits in ALL k bit vectors. Outgoing
//     packets always pass.
//   - Every incoming packet hashes {destination-address, destination-port,
//     source-address} and is admitted only if all m bits are set in the
//     CURRENT bit vector; otherwise it is dropped.
//   - Every Δt seconds b.rotate advances the current index to the next
//     vector and zeroes the previous one.
//
// Because marks land in all vectors and each vector is zeroed once per k
// rotations, an admitted flow stays admitted for between (k−1)·Δt and
// k·Δt = T_e seconds after its last outgoing packet — the bitmap realizes
// the naive per-tuple expiry timer of §3.3 in O(1) time and fixed
// (k·2^n)/8 bytes.
//
// The filter is driven by virtual time carried on packets; rotations fire
// lazily as timestamps advance, so trace-driven simulation needs no wall
// clock. A Filter is single-goroutine: whoever shares one serializes its
// callers.
package core

import (
	"errors"
	"fmt"
	"time"

	"bitmapfilter/internal/bitvector"
	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/hashfam"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/xrand"
)

// Paper defaults (§4.3): a {4×20}-bitmap with 3 hash functions rotated
// every 5 seconds — 512 KiB of state handling out-in latencies up to
// T_e = 20 s.
const (
	DefaultOrder       = 20
	DefaultVectors     = 4
	DefaultHashes      = 3
	DefaultRotateEvery = 5 * time.Second
)

// ErrConfig is returned by New for invalid configurations.
var ErrConfig = errors.New("core: invalid bitmap filter configuration")

// errPairs is what ProcessHashedInto panics with: a bug in its caller.
var errPairs = errors.New("core: ProcessHashedInto: pairs does not hold 2 words per packet")

// MarkPolicy selects which vectors outgoing packets mark. The paper's
// design marks all vectors; MarkCurrentOnly exists as an ablation that
// demonstrates why (entries would vanish at every rotation).
type MarkPolicy uint8

// Mark policies.
const (
	MarkAllVectors MarkPolicy = iota + 1
	MarkCurrentOnly
)

// TuplePolicy selects which tuple fields are hashed. The paper hashes the
// partial tuple (remote port excluded, §3.3/§5.1); FullTuple is the
// stricter ablation that breaks protocols whose replies come from a
// different remote port.
type TuplePolicy uint8

// Tuple policies.
const (
	PartialTuple TuplePolicy = iota + 1
	FullTuple
)

// Option configures a Filter.
type Option interface {
	apply(*config)
}

type config struct {
	order       uint
	vectors     int
	hashes      int
	rotateEvery time.Duration
	seed        uint64
	markPolicy  MarkPolicy
	tuplePolicy TuplePolicy
	apd         DropPolicy
	shards      int // WithShards: Build's, never New's
}

func defaultConfig() config {
	return config{
		order:       DefaultOrder,
		vectors:     DefaultVectors,
		hashes:      DefaultHashes,
		rotateEvery: DefaultRotateEvery,
		markPolicy:  MarkAllVectors,
		tuplePolicy: PartialTuple,
	}
}

type orderOption uint

func (o orderOption) apply(c *config) { c.order = uint(o) }

// WithOrder sets n: each bit vector holds 2^n bits.
func WithOrder(n uint) Option { return orderOption(n) }

type vectorsOption int

func (o vectorsOption) apply(c *config) { c.vectors = int(o) }

// WithVectors sets k, the number of bit vectors.
func WithVectors(k int) Option { return vectorsOption(k) }

type hashesOption int

func (o hashesOption) apply(c *config) { c.hashes = int(o) }

// WithHashes sets m, the number of hash functions.
func WithHashes(m int) Option { return hashesOption(m) }

type rotateOption time.Duration

func (o rotateOption) apply(c *config) { c.rotateEvery = time.Duration(o) }

// WithRotateEvery sets Δt, the rotation period.
func WithRotateEvery(dt time.Duration) Option { return rotateOption(dt) }

type seedOption uint64

func (o seedOption) apply(c *config) { c.seed = uint64(o) }

// WithSeed sets the seed of the hash family (and of the APD coin flips).
func WithSeed(seed uint64) Option { return seedOption(seed) }

type markPolicyOption MarkPolicy

func (o markPolicyOption) apply(c *config) { c.markPolicy = MarkPolicy(o) }

// WithMarkPolicy overrides the marking policy (ablation only).
func WithMarkPolicy(p MarkPolicy) Option { return markPolicyOption(p) }

type tuplePolicyOption TuplePolicy

func (o tuplePolicyOption) apply(c *config) { c.tuplePolicy = TuplePolicy(o) }

// WithTuplePolicy overrides which tuple fields are hashed (ablation only).
func WithTuplePolicy(p TuplePolicy) Option { return tuplePolicyOption(p) }

type apdOption struct{ policy DropPolicy }

func (o apdOption) apply(c *config) { c.apd = o.policy }

// WithAPD enables adaptive packet dropping (§5.3) under the given policy.
// An APD-enabled filter (a) drops unmatched incoming packets only with the
// policy's probability, and (b) stops marking outgoing TCP signal packets
// (SYN+ACK, FIN+ACK, RST±ACK) so scans cannot inflate the bitmap.
func WithAPD(policy DropPolicy) Option { return apdOption{policy: policy} }

// Filter is a {k×n}-bitmap filter. It is not safe for concurrent use.
type Filter struct {
	cfg     config
	vectors []*bitvector.Vector
	idx     int
	hasher  *Hasher // its own allocation: workers read it while the judge writes the fields below
	rng     *xrand.Rand
	// prefetching: a vector outgrows L2 (order ≥ prefetchMinOrder), so
	// judgeHashed prefetches ahead. Fixed by the geometry, in New.
	prefetching bool

	now        time.Duration
	nextRotate time.Duration

	counters  filtering.Counters
	rotations uint64
	marks     uint64
	apdSpared uint64 // unmatched incoming packets admitted by APD
}

var _ filtering.BatchFilter = (*Filter)(nil)

// New constructs a bitmap filter. With no options it is the paper's
// {4×20}-bitmap with m=3 and Δt=5 s.
func New(opts ...Option) (*Filter, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o.apply(&cfg)
	}
	if cfg.shards != 0 {
		// Sharding is a composition above the single filter; only Build
		// honors it. Rejecting it here keeps a misplaced bundle from
		// silently degrading to an unsharded filter.
		return nil, fmt.Errorf("%w: WithShards requires Build, not New", ErrConfig)
	}
	if cfg.vectors < 1 {
		return nil, fmt.Errorf("%w: k=%d", ErrConfig, cfg.vectors)
	}
	if cfg.rotateEvery <= 0 {
		return nil, fmt.Errorf("%w: Δt=%v", ErrConfig, cfg.rotateEvery)
	}
	switch cfg.markPolicy {
	case MarkAllVectors, MarkCurrentOnly:
	default:
		return nil, fmt.Errorf("%w: mark policy %d", ErrConfig, cfg.markPolicy)
	}
	switch cfg.tuplePolicy {
	case PartialTuple, FullTuple:
	default:
		return nil, fmt.Errorf("%w: tuple policy %d", ErrConfig, cfg.tuplePolicy)
	}
	fam, err := hashfam.New(cfg.hashes, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	vectors := make([]*bitvector.Vector, cfg.vectors)
	for i := range vectors {
		v, err := bitvector.New(cfg.order)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrConfig, err)
		}
		vectors[i] = v
	}
	return &Filter{
		cfg:         cfg,
		vectors:     vectors,
		hasher:      &Hasher{fam: fam, full: cfg.tuplePolicy == FullTuple},
		rng:         xrand.New(cfg.seed ^ 0xb17a9f11ce5),
		prefetching: cfg.order >= prefetchMinOrder,
		nextRotate:  cfg.rotateEvery,
	}, nil
}

// MustNew is New for statically known options; it panics on error.
func MustNew(opts ...Option) *Filter {
	f, err := New(opts...)
	if err != nil {
		panic(err)
	}
	return f
}

// Name implements filtering.PacketFilter.
func (f *Filter) Name() string {
	return fmt.Sprintf("bitmap{%dx%d,m=%d,dt=%v}",
		f.cfg.vectors, f.cfg.order, f.cfg.hashes, f.cfg.rotateEvery)
}

// Order returns n.
func (f *Filter) Order() uint { return f.cfg.order }

// Vectors returns k.
func (f *Filter) Vectors() int { return f.cfg.vectors }

// Hashes returns m.
func (f *Filter) Hashes() int { return f.cfg.hashes }

// RotateEvery returns Δt.
func (f *Filter) RotateEvery() time.Duration { return f.cfg.rotateEvery }

// ExpiryTimer returns T_e = k·Δt, the maximum lifetime of a mark.
func (f *Filter) ExpiryTimer() time.Duration {
	return time.Duration(f.cfg.vectors) * f.cfg.rotateEvery
}

// MemoryBytes returns the fixed footprint of the bitmap: (k·2^n)/8 bytes.
func (f *Filter) MemoryBytes() uint64 {
	return uint64(f.cfg.vectors) * f.vectors[0].Bytes()
}

// Counters implements filtering.PacketFilter.
func (f *Filter) Counters() filtering.Counters { return f.counters }

// Rotations returns the number of b.rotate invocations so far.
func (f *Filter) Rotations() uint64 { return f.rotations }

// Marks returns the number of outgoing packets that marked the bitmap.
func (f *Filter) Marks() uint64 { return f.marks }

// APDSpared returns the number of unmatched incoming packets that adaptive
// packet dropping chose to admit anyway.
func (f *Filter) APDSpared() uint64 { return f.apdSpared }

// Utilization returns U, the fraction of set bits in the current vector
// (§4.1).
func (f *Filter) Utilization() float64 { return f.vectors[f.idx].Utilization() }

// PenetrationProbability returns the instantaneous probability p = U^m that
// a random incoming tuple penetrates the filter (Equation 1).
func (f *Filter) PenetrationProbability() float64 {
	p := 1.0
	u := f.Utilization()
	for i := 0; i < f.cfg.hashes; i++ {
		p *= u
	}
	return p
}

// AdvanceTo implements filtering.PacketFilter: it fires every rotation due
// strictly before or at time now. Gaps spanning ≥ k rotations short-circuit
// to a full reset.
func (f *Filter) AdvanceTo(now time.Duration) {
	if now <= f.now {
		return
	}
	f.now = now
	if f.now < f.nextRotate {
		return
	}
	pending := uint64((f.now-f.nextRotate)/f.cfg.rotateEvery) + 1
	if pending >= uint64(f.cfg.vectors) {
		// Every vector would be cleared anyway: reset wholesale but
		// keep the rotation accounting exact.
		for _, v := range f.vectors {
			v.Reset()
		}
		f.idx = (f.idx + int(pending%uint64(f.cfg.vectors))) % f.cfg.vectors
		f.rotations += pending
	} else {
		for i := uint64(0); i < pending; i++ {
			f.Rotate()
		}
	}
	f.nextRotate += time.Duration(pending) * f.cfg.rotateEvery
}

// Reset clears every bit vector and all statistics, returning the filter
// to its just-constructed state (the rotation schedule continues from the
// current virtual time). Operators use this to flush state after an
// incident without reallocating. An attached APD policy that implements
// PolicyResetter has its sliding windows flushed too, so post-reset drop
// probabilities do not reflect pre-incident traffic.
func (f *Filter) Reset() {
	for _, v := range f.vectors {
		v.Reset()
	}
	f.idx = 0
	f.counters = filtering.Counters{}
	f.rotations = 0
	f.marks = 0
	f.apdSpared = 0
	if r, ok := f.cfg.apd.(PolicyResetter); ok {
		r.Reset()
	}
}

// Rotate performs one b.rotate step (Algorithm 1): the current index moves
// to the next vector and the previous vector is zeroed.
func (f *Filter) Rotate() {
	last := f.idx
	f.idx = (f.idx + 1) % f.cfg.vectors
	f.vectors[last].Reset()
	f.rotations++
}

// Process implements filtering.PacketFilter (Algorithm 2, b.filter).
//
//bf:hotpath
func (f *Filter) Process(pkt packet.Packet) filtering.Verdict {
	h1, h2 := f.hasher.Pair(&pkt)
	return f.judge(&pkt, h1, h2)
}

// ProcessBatchInto runs pkts through the filter in order and returns one
// verdict per packet, written into out per the filtering.BatchFilter
// contract: out's backing array is reused when cap(out) >= len(pkts) — a
// steady-state batch stream then runs with zero allocations — and grown
// otherwise. It is behaviorally identical to calling Process on each packet
// in sequence — same verdicts, counters, rotations and APD coin flips — but
// advances the rotation clock only when a packet's timestamp actually moves
// time forward, and hashes a chunk of packets before it touches the bitmap
// for any of them (see processBatch).
//
//bf:hotpath
func (f *Filter) ProcessBatchInto(pkts []packet.Packet, out []filtering.Verdict) []filtering.Verdict {
	out = filtering.GrowVerdicts(out, len(pkts))
	f.processBatch(pkts, out)
	return out
}

// chunkSize is how many packets processBatch hashes ahead of the bitmap.
const chunkSize = 32

// processBatch is the allocation-free core of ProcessBatchInto; out must have
// the same length as pkts. It is the two halves of Algorithm 2 in chunks of
// chunkSize packets: HashBatch computes the base pair of every packet in the
// chunk — arithmetic on the packet and the seed only, so it may run ahead of
// the clock — and judgeHashed walks the chunk in packet order with them.
// Apart, the hashes pipeline and the cache-missing bit touches of
// neighbouring packets overlap; interleaved, each stalled the other (≈65
// ns/packet at order 28).
//
//bf:hotpath
func (f *Filter) processBatch(pkts []packet.Packet, out []filtering.Verdict) {
	var pairs [2 * chunkSize]uint64
	for len(pkts) > 0 {
		n := min(len(pkts), chunkSize)
		f.judgeHashed(pkts[:n], f.hasher.HashBatch(pkts[:n], pairs[:0]), out[:n])
		pkts, out = pkts[n:], out[n:]
	}
}

// ProcessHashedInto is ProcessBatchInto for a caller that has run
// Hasher().HashBatch over pkts, on whatever goroutine: the ordered half alone
// — clock, marks, lookups, APD, counters — with ProcessBatchInto's verdicts
// and state. Pairs not two words per packet panic before anything is touched.
//
//bf:hotpath
func (f *Filter) ProcessHashedInto(pkts []packet.Packet, pairs []uint64, out []filtering.Verdict) []filtering.Verdict {
	if len(pairs) != 2*len(pkts) {
		panic(errPairs)
	}
	out = filtering.GrowVerdicts(out, len(pkts))
	f.judgeHashed(pkts, pairs, out)
	return out
}

// prefetchAhead is how many packets ahead of the one it judges judgeHashed
// prefetches, and prefetchMinOrder the smallest order at which it does: one
// vector of 2^n bits is then larger than the reference box's 2 MiB L2, and
// judging a packet is mostly waiting for its lines. Below it the hint is pure
// cost. The ordered half alone over the client_mix_o28 trace, ns/packet
// without → with: order 20 37 → 46, 24 52 → 51, 25 74 → 60, 28 115 → 78; at
// order 28, 4 and 8 ahead measured alike, 16 and 32 worse.
// BenchmarkProcessHashedBatch runs both sides of the gate.
const (
	prefetchAhead    = 8
	prefetchMinOrder = 25
)

// judgeHashed is the ordered half of Algorithm 2: pkts in order, packet i
// with the base pair at pairs[2i:]; out has the length of pkts. With the
// vectors out of cache, packet i+prefetchAhead's lines are on their way while
// packet i is judged (a prologue starts the first ones).
//
//bf:hotpath
func (f *Filter) judgeHashed(pkts []packet.Packet, pairs []uint64, out []filtering.Verdict) {
	pairs = pairs[:2*len(pkts)]
	ahead := len(pkts) // i+ahead is past the end: nothing to prefetch
	if f.prefetching {
		ahead = min(prefetchAhead, len(pkts))
		for j := 0; j < ahead; j++ {
			f.prefetch(pkts[j].Dir, pairs[2*j], pairs[2*j+1])
		}
	}
	for i := range pkts {
		if j := i + ahead; j < len(pkts) {
			f.prefetch(pkts[j].Dir, pairs[2*j], pairs[2*j+1])
		}
		out[i] = f.judge(&pkts[i], pairs[2*i], pairs[2*i+1])
	}
}

// prefetch starts loading the lines judge reads first for a packet of
// direction dir with base pair (h1, h2): the newest vector's for an outgoing
// packet (mark's nesting test), the current one's otherwise (lookup, and a
// MarkCurrentOnly mark). A rotation before the packet is judged makes it the
// wrong vector's lines — a wasted hint, nothing more.
//
//bf:hotpath
func (f *Filter) prefetch(dir packet.Direction, h1, h2 uint64) {
	v := f.idx
	if dir == packet.Outgoing && f.cfg.markPolicy == MarkAllVectors {
		v = f.newest()
	}
	f.vectors[v].PrefetchPair(h1, h2, f.cfg.hashes)
}

// judge applies Algorithm 2 to one packet whose base pair HashBatch or
// Hasher.Pair computed: the clock advanced to pkt.Time if that moves it, then
// the marks or the lookup, APD and counters. A Group, which judges packet by
// packet through several filters, calls it in source order; each filter sees
// what ProcessBatchInto of its own packets would have made of them.
//
//bf:hotpath
func (f *Filter) judge(pkt *packet.Packet, h1, h2 uint64) filtering.Verdict {
	if pkt.Time > f.now {
		f.AdvanceTo(pkt.Time)
	}
	if pkt.Dir == packet.Outgoing {
		// Under APD the marking policy skips TCP signal packets so
		// that SYN/FIN-scan responses cannot inflate the bitmap
		// (§5.3).
		if f.cfg.apd == nil || !pkt.IsSignal() {
			f.mark(h1, h2)
		}
		if f.cfg.apd != nil {
			f.cfg.apd.Observe(*pkt)
		}
		f.counters.Count(*pkt, filtering.Pass)
		return filtering.Pass
	}

	v := filtering.Pass
	if !f.lookup(h1, h2) {
		v = filtering.Drop
		if f.cfg.apd != nil {
			// APD drops unmatched packets only probabilistically.
			p := f.cfg.apd.DropProbability(pkt.Time)
			if !f.rng.Bool(p) {
				v = filtering.Pass
				f.apdSpared++
			}
		}
	}
	// Incoming packets feed the APD indicator only when admitted: a
	// dropped packet never reaches the protected downstream link, so
	// counting its bytes would inflate U_b under exactly the floods APD
	// is meant to ride out (see the Observe contract in apd.go).
	if v == filtering.Pass && f.cfg.apd != nil {
		f.cfg.apd.Observe(*pkt)
	}
	f.counters.Count(*pkt, v)
	return v
}

// PunchHole implements the hole-punching technique of §5.1: it marks the
// bitmap exactly as an outgoing packet with tuple {local, localPort,
// remote, x} would, allowing remote to initiate a connection to
// local:localPort until the marks expire.
func (f *Filter) PunchHole(local packet.Addr, localPort uint16, remote packet.Addr, proto packet.Proto) {
	tup := packet.Tuple{
		Src:     local,
		SrcPort: localPort,
		Dst:     remote,
		Proto:   proto,
	}
	f.mark(f.hasher.pair(&tup, packet.Outgoing))
}

// WouldAdmit reports, without counting or APD, whether an incoming packet
// with the given tuple would currently pass the bitmap lookup. Attack
// verification in the Figure 5 experiment uses this to classify penetrating
// packets.
func (f *Filter) WouldAdmit(tup packet.Tuple) bool {
	return f.lookup(f.hasher.pair(&tup, packet.Incoming))
}

// Hasher is the pure half of Algorithm 2 (§3.3): a packet's key under the
// filter's tuple policy, hashed to its Kirsch–Mitzenmacher base pair
// (h1, h2). The m indexes g_i = h1 + i·h2 are derived where the bits are
// touched, so a pair depends on the seed and the tuple policy alone: it is
// valid for any order and hash count a filter with that seed and policy has.
// It is immutable, so any number of goroutines may hash ahead of the one
// that judges.
type Hasher struct {
	fam  *hashfam.Family
	full bool // FullTuple
}

// Hasher returns the filter's hash half; it never changes.
func (f *Filter) Hasher() *Hasher { return f.hasher }

// HashBatch returns dst with the base pair of every packet of pkts, packet i
// at dst[2i] and dst[2i+1], growing dst only when its capacity is short.
//
//bf:hotpath
func (h *Hasher) HashBatch(pkts []packet.Packet, dst []uint64) []uint64 {
	dst = filtering.GrowSlice(dst, 2*len(pkts))
	for i := range pkts {
		dst[2*i], dst[2*i+1] = h.Pair(&pkts[i])
	}
	return dst
}

// Pair is the base pair of one packet's key.
//
//bf:hotpath
func (h *Hasher) Pair(pkt *packet.Packet) (h1, h2 uint64) {
	return h.pair(&pkt.Tuple, pkt.Dir)
}

// pair hashes the key of (tup, dir) under the tuple policy, packed into two
// little-endian 64-bit lanes: no key byte slice on the hot path, and the
// partial tuple through the fixed 11-byte kernel.
//
//bf:hotpath
func (h *Hasher) pair(tup *packet.Tuple, dir packet.Direction) (h1, h2 uint64) {
	var lo, hi uint64
	switch {
	case h.full:
		// Ablation: hash the complete 4-tuple, canonicalized to the
		// outgoing orientation.
		t := *tup
		if dir == packet.Incoming {
			t = t.Reverse()
		}
		lo, hi = t.FullKeyWords()
		return h.fam.BaseFixed(lo, hi, packet.FullKeySize)
	case dir == packet.Outgoing:
		lo, hi = tup.OutgoingKeyWords()
	default:
		lo, hi = tup.IncomingKeyWords()
	}
	return h.fam.Base11(lo, hi)
}

// mark sets the m bits of the base pair (h1, h2) in every vector (Algorithm
// 2, outgoing).
//
// Nesting invariant: under MarkAllVectors the vectors are nested by age,
// newest-cleared first: vectors[idx−1] ⊆ vectors[idx−2] ⊆ … ⊆ vectors[idx]
// (indexes mod k). Proof: (1) mark sets its bits in all k vectors, which
// preserves every inclusion; (2) Rotate, AdvanceTo's wholesale arm and
// Reset only empty the vector that becomes the newest (or all of them),
// and ∅ is a subset of anything; (3) snapshot restore, the one outside
// source of vector words, verifies the chain (nested). So bits set in the
// newest vector are set in all k, marking them again changes nothing, and
// mark skips the k·m writes when the newest vector already holds them. For
// k = 1 that is Set's own "already set" test. MarkCurrentOnly marks one
// vector, not all k: the shortcut is not its.
//
//bf:hotpath
func (f *Filter) mark(h1, h2 uint64) {
	f.marks++
	m := f.cfg.hashes
	if f.cfg.markPolicy == MarkCurrentOnly {
		bitvector.SetPairAllVectors(f.vectors[f.idx:f.idx+1], h1, h2, m)
		return
	}
	if !f.vectors[f.newest()].TestPair(h1, h2, m) {
		bitvector.SetPairAllVectors(f.vectors, h1, h2, m)
	}
}

// newest is the index of the vector cleared last, the one before the current.
func (f *Filter) newest() int {
	if f.idx == 0 {
		return f.cfg.vectors - 1
	}
	return f.idx - 1
}

// nested reports whether the nesting invariant (see mark) holds: each
// vector is a subset of the next-older one, down the age chain.
func (f *Filter) nested() bool {
	k := f.cfg.vectors
	for j := 1; j < k; j++ {
		if !f.vectors[(f.idx+k-j)%k].SubsetOf(f.vectors[(f.idx+k-j-1)%k]) {
			return false
		}
	}
	return true
}

// lookup tests the m bits of the base pair (h1, h2) in the current vector
// only.
//
//bf:hotpath
func (f *Filter) lookup(h1, h2 uint64) bool {
	return f.vectors[f.idx].TestPair(h1, h2, f.cfg.hashes)
}
