package core

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/hashfam"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/xrand"
)

func TestNewShardedValidation(t *testing.T) {
	if _, err := NewSharded(0); !errors.Is(err, ErrConfig) {
		t.Errorf("0 shards: %v", err)
	}
	if _, err := NewSharded(4, WithVectors(0)); !errors.Is(err, ErrConfig) {
		t.Errorf("bad shard options: %v", err)
	}
	s, err := NewSharded(3, WithOrder(10))
	if err != nil {
		t.Fatal(err)
	}
	if s.Shards() != 4 {
		t.Errorf("shards = %d, want rounded to 4", s.Shards())
	}
	if s.Name() == "" {
		t.Error("empty name")
	}
}

func TestShardedBasicSemantics(t *testing.T) {
	s, err := NewSharded(4, WithOrder(12), WithRotateEvery(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	s.Process(outPkt(0, client, server, 4000, 80))
	if v := s.Process(inPkt(time.Second, server, client, 80, 4000)); v != filtering.Pass {
		t.Error("reply dropped")
	}
	// Reply from another remote port still matches (same shard by key
	// symmetry).
	if v := s.Process(inPkt(time.Second, server, client, 9999, 4000)); v != filtering.Pass {
		t.Error("alternate-port reply dropped: flow split across shards?")
	}
	if v := s.Process(inPkt(2*time.Second, server, client, 80, 4001)); v != filtering.Drop {
		t.Error("unsolicited packet passed")
	}
	// Expiry still works through AdvanceTo.
	s.AdvanceTo(30 * time.Second)
	if v := s.Process(inPkt(30*time.Second, server, client, 80, 4000)); v != filtering.Drop {
		t.Error("mark survived T_e across shards")
	}
	c := s.Counters()
	if c.OutPackets != 1 || c.InPackets != 4 || c.InPassed != 2 || c.InDropped != 2 {
		t.Errorf("counters = %+v", c)
	}
}

func TestShardedMemoryIsSumOfShards(t *testing.T) {
	s, err := NewSharded(4, WithOrder(12))
	if err != nil {
		t.Fatal(err)
	}
	single := MustNew(WithOrder(12))
	if got, want := s.MemoryBytes(), 4*single.MemoryBytes(); got != want {
		t.Errorf("MemoryBytes = %d, want %d", got, want)
	}
}

// Differential: a sharded filter must agree with a single filter on every
// verdict for benign request/reply traffic (the partial-tuple key routes
// each flow wholly into one shard).
func TestShardedMatchesSingleOnFlows(t *testing.T) {
	single := MustNew(WithOrder(16), WithRotateEvery(5*time.Second), WithSeed(1))
	sharded, err := NewSharded(8, WithOrder(16), WithRotateEvery(5*time.Second), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(3)
	now := time.Duration(0)
	// Ground truth: last mark time per partial-tuple key. Packets whose
	// mark is younger than (k−1)·Δt MUST pass in both filters; packets
	// with no mark within k·Δt SHOULD drop in both, but hash-collision
	// admits are legal and differ between the two (the single filter is
	// fuller, and the shards use perturbed hash families), so those rare
	// disagreements are only counted.
	marks := make(map[packet.Key]time.Duration)
	collisions := 0
	for i := 0; i < 20000; i++ {
		now += time.Duration(r.Intn(20)) * time.Millisecond
		remote := packet.AddrFrom4(198, 51, 100, byte(r.Intn(100)))
		lport := uint16(1024 + r.Intn(500))
		var pkt packet.Packet
		if r.Bool(0.5) {
			pkt = outPkt(now, client, remote, lport, 80)
			marks[pkt.Tuple.OutgoingKey()] = now
		} else {
			pkt = inPkt(now, remote, client, 80, lport)
		}
		v1 := single.Process(pkt)
		v2 := sharded.Process(pkt)
		if v1 == v2 {
			continue
		}
		last, marked := marks[pkt.Tuple.IncomingKey()]
		age := now - last
		switch {
		case marked && age < 15*time.Second:
			t.Fatalf("packet %d (%v): fresh mark (age %v) but single=%v sharded=%v",
				i, pkt, age, v1, v2)
		case !marked || age >= 20*time.Second:
			collisions++ // a collision admit in one of the two: legal
		default:
			// Between (k−1)·Δt and k·Δt admission depends on rotation
			// phase, which is identical in both filters — they must
			// agree.
			t.Fatalf("packet %d (%v): phase-window divergence single=%v sharded=%v",
				i, pkt, v1, v2)
		}
	}
	if collisions > 10 {
		t.Errorf("%d collision disagreements; expected a handful at most", collisions)
	}
}

func TestShardedPunchHoleAndWouldAdmit(t *testing.T) {
	s, err := NewSharded(4, WithOrder(12), WithRotateEvery(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	hole := packet.Tuple{Src: server, Dst: client, SrcPort: 20, DstPort: 2000, Proto: packet.TCP}
	if s.WouldAdmit(hole) {
		t.Fatal("hole open before punch")
	}
	s.PunchHole(client, 2000, server, packet.TCP)
	if !s.WouldAdmit(hole) {
		t.Error("punched hole not visible via WouldAdmit")
	}
	if v := s.Process(packet.Packet{Tuple: hole, Dir: packet.Incoming, Flags: packet.SYN}); v != filtering.Pass {
		t.Error("punched connection dropped")
	}
}

// statefulNoClonePolicy accumulates state (it implements PolicyResetter)
// but cannot clone — NewSharded must refuse to share one instance across
// shard locks.
type statefulNoClonePolicy struct{ n int }

func (p *statefulNoClonePolicy) Observe(packet.Packet)                 { p.n++ }
func (p *statefulNoClonePolicy) DropProbability(time.Duration) float64 { return 0 }
func (p *statefulNoClonePolicy) Name() string                          { return "stateful-no-clone" }
func (p *statefulNoClonePolicy) Reset()                                { p.n = 0 }

// statelessPolicy implements neither PolicyResetter nor PolicyCloner: it
// holds no mutable state, so NewSharded shares it across shards as-is.
type statelessPolicy struct{ p float64 }

func (s statelessPolicy) Observe(packet.Packet)                 {}
func (s statelessPolicy) DropProbability(time.Duration) float64 { return s.p }
func (s statelessPolicy) Name() string                          { return "stateless" }

func TestNewShardedAPDPolicyHandling(t *testing.T) {
	if _, err := NewSharded(4, WithOrder(10), WithAPD(&statefulNoClonePolicy{})); !errors.Is(err, ErrConfig) {
		t.Errorf("stateful no-clone policy: err = %v, want ErrConfig", err)
	}
	s, err := NewSharded(4, WithOrder(10), WithAPD(statelessPolicy{p: 1}))
	if err != nil {
		t.Fatalf("stateless policy rejected: %v", err)
	}
	if got := s.Stats().APDPolicy; got != "stateless" {
		t.Errorf("APDPolicy = %q, want stateless", got)
	}
	// p = 1 everywhere: unmatched incoming packets still drop.
	if v := s.Process(inPkt(0, server, client, 80, 4000)); v != filtering.Drop {
		t.Error("unmatched packet admitted despite p=1 policy")
	}
}

// TestShardedClonesAPDPolicyPerShard pins the cloning contract: the
// caller's policy instance is a template only — shards accumulate
// indicator state in their own clones and the template stays pristine.
func TestShardedClonesAPDPolicyPerShard(t *testing.T) {
	rp, err := NewRatioPolicy(1, 3, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSharded(4, WithOrder(12), WithAPD(rp))
	if err != nil {
		t.Fatal(err)
	}
	// Incoming-only probes across many flows: each shard's first admitted
	// probe is an APD spare (ratio still 0), after which the shard's in/out
	// ratio sits at the high threshold and every later probe drops.
	var passed uint64
	for i := 0; i < 256; i++ {
		pkt := inPkt(0, packet.AddrFrom4(198, 51, 100, byte(i)), client, 80, uint16(5000+i))
		if s.Process(pkt) == filtering.Pass {
			passed++
		}
	}
	if got := rp.DropProbability(0); got != 0 {
		t.Errorf("template policy DropProbability = %v, want 0 (shards must use clones)", got)
	}
	if s.APDSpared() == 0 {
		t.Fatal("APDSpared = 0: APD not active on the shards")
	}
	// No marks exist, so every admitted probe was an APD spare.
	if got := s.APDSpared(); got != passed {
		t.Errorf("APDSpared = %d, want %d (the admitted probes)", got, passed)
	}
	st := s.Stats()
	if !st.APDEnabled || st.APDPolicy != "apd-ratio" {
		t.Errorf("aggregate stats: enabled=%v policy=%q", st.APDEnabled, st.APDPolicy)
	}
	if st.APDDropProbability == 0 {
		t.Error("aggregate APDDropProbability = 0 after an incoming-only flood")
	}
	per := s.ShardStats()
	var sumSpared uint64
	for _, ps := range per {
		sumSpared += ps.APDSpared
	}
	if sumSpared != s.APDSpared() {
		t.Errorf("per-shard spared sum = %d, APDSpared = %d", sumSpared, s.APDSpared())
	}
}

// TestBandwidthPolicyShardScaling checks both halves of the 1/S capacity
// rule: ClonePolicy+ScaleForShards divide the configured capacity, and
// end-to-end the aggregate drop probability equals the U_b one unsharded
// policy would compute from the combined traffic.
func TestBandwidthPolicyShardScaling(t *testing.T) {
	p, err := NewBandwidthPolicy(1e6, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	clone := p.ClonePolicy().(*BandwidthPolicy)
	clone.ScaleForShards(4)
	if got := clone.Capacity(); got != 250000 {
		t.Errorf("scaled clone capacity = %v, want 250000", got)
	}
	if got := p.Capacity(); got != 1e6 {
		t.Errorf("template capacity = %v, want 1e6 (scaling must not leak back)", got)
	}

	bw, err := NewBandwidthPolicy(1e6, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSharded(4, WithOrder(14), WithAPD(bw))
	if err != nil {
		t.Fatal(err)
	}
	// 64 matched flows, each reply carrying 500 admitted bytes:
	// 64·500·8 = 256000 bits over a 1 s window on a 1e6 bit/s link, so the
	// global U_b is 0.256. Per shard, U_b_i = 8·B_i/(C/S · win), and the
	// mean over shards telescopes back to 8·ΣB_i/(C · win) exactly.
	for i := 0; i < 64; i++ {
		remote := packet.AddrFrom4(198, 51, 100, byte(i))
		lport := uint16(4000 + i)
		s.Process(outPkt(0, client, remote, lport, 80))
		reply := inPkt(0, remote, client, 80, lport)
		reply.Length = 500
		if s.Process(reply) != filtering.Pass {
			t.Fatalf("matched reply %d dropped", i)
		}
	}
	if got := s.Stats().APDDropProbability; math.Abs(got-0.256) > 1e-9 {
		t.Errorf("aggregate U_b = %v, want 0.256 (per-shard capacity must scale by 1/S)", got)
	}
}

// TestShardedStatsAggregation pins the Stats contract: additive fields are
// sums over ShardStats, fractional indicators are means, clocks take the
// most-advanced shard and the earliest pending rotation.
func TestShardedStatsAggregation(t *testing.T) {
	rp, err := NewRatioPolicy(1, 3, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSharded(4, WithOrder(12), WithRotateEvery(5*time.Second), WithAPD(rp))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		ts := time.Duration(i) * time.Millisecond
		remote := packet.AddrFrom4(198, 51, 100, byte(i))
		lport := uint16(4000 + i)
		s.Process(outPkt(ts, client, remote, lport, 80))
		s.Process(inPkt(ts, remote, client, 80, lport))
	}
	s.AdvanceTo(6 * time.Second) // fire at least one rotation everywhere

	per := s.ShardStats()
	agg := s.Stats()
	if len(per) != 4 {
		t.Fatalf("ShardStats returned %d snapshots, want 4", len(per))
	}
	var want Stats
	want.NextRotation = per[0].NextRotation
	for _, st := range per {
		want.MemoryBytes += st.MemoryBytes
		want.Rotations += st.Rotations
		want.Marks += st.Marks
		want.APDSpared += st.APDSpared
		want.Counters.OutPackets += st.Counters.OutPackets
		want.Counters.InPackets += st.Counters.InPackets
		want.Counters.InPassed += st.Counters.InPassed
		want.Counters.InDropped += st.Counters.InDropped
		want.Utilization += st.Utilization
		if st.Now > want.Now {
			want.Now = st.Now
		}
		if st.NextRotation < want.NextRotation {
			want.NextRotation = st.NextRotation
		}
	}
	if agg.MemoryBytes != want.MemoryBytes || agg.Rotations != want.Rotations ||
		agg.Marks != want.Marks || agg.APDSpared != want.APDSpared ||
		agg.Counters != want.Counters {
		t.Errorf("additive fields:\nagg:  %+v\nwant: %+v", agg, want)
	}
	if math.Abs(agg.Utilization-want.Utilization/4) > 1e-12 {
		t.Errorf("Utilization = %v, want mean %v", agg.Utilization, want.Utilization/4)
	}
	if agg.Now != want.Now || agg.NextRotation != want.NextRotation {
		t.Errorf("clocks: now=%v next=%v, want now=%v next=%v",
			agg.Now, agg.NextRotation, want.Now, want.NextRotation)
	}
	if len(agg.VectorUtilization) != len(per[0].VectorUtilization) {
		t.Errorf("VectorUtilization length = %d, want %d",
			len(agg.VectorUtilization), len(per[0].VectorUtilization))
	}
}

func TestShardedConcurrent(t *testing.T) {
	s, err := NewSharded(8, WithOrder(14), WithRotateEvery(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint16(1000 * (w + 1))
			for i := 0; i < 2000; i++ {
				ts := time.Duration(i) * time.Millisecond
				s.Process(outPkt(ts, client, server, base+uint16(i%50), 80))
				if v := s.Process(inPkt(ts, server, client, 80, base+uint16(i%50))); v != filtering.Pass {
					t.Errorf("worker %d: reply dropped", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	c := s.Counters()
	if c.OutPackets != 16000 || c.InPackets != 16000 || c.InDropped != 0 {
		t.Errorf("counters = %+v", c)
	}
}

// TestLaneOfMatchesFamilyRoute pins the route to the expression it
// replaced — a one-function hashfam.Family over the 11-byte key, whose
// Index(0, ·) is Murmur64 plus an XX64 that was thrown away — so sharded
// snapshots written before the change keep restoring into the shards
// their flows route to.
func TestLaneOfMatchesFamilyRoute(t *testing.T) {
	ref := hashfam.MustNew(1, 0x5ead5ead)
	const tuples = 1 << 20
	for _, n := range []int{2, 4, 8} {
		s, err := NewSharded(n, WithOrder(8))
		if err != nil {
			t.Fatal(err)
		}
		mask := uint64(n - 1)
		r := xrand.New(uint64(n))
		for i := 0; i < tuples; i++ {
			a, b := r.Uint64(), r.Uint64()
			tup := packet.Tuple{
				Src: packet.Addr(a), Dst: packet.Addr(a >> 32),
				SrcPort: uint16(b), DstPort: uint16(b >> 16),
				Proto: []packet.Proto{packet.TCP, packet.UDP}[b>>32&1],
			}
			out, in := tup.OutgoingKey(), tup.IncomingKey()
			if got, want := s.LaneOf(tup, packet.Outgoing), int(ref.Index(0, out[:])&mask); got != want {
				t.Fatalf("%d shards, outgoing %+v: lane %d, want %d", n, tup, got, want)
			}
			if got, want := s.LaneOf(tup, packet.Incoming), int(ref.Index(0, in[:])&mask); got != want {
				t.Fatalf("%d shards, incoming %+v: lane %d, want %d", n, tup, got, want)
			}
		}
	}
}
