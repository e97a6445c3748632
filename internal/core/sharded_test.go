package core

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
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
	if _, err := s.Resize(0, 0, 12, 3); !errors.Is(err, ErrConfig) {
		t.Errorf("resizing a shard: %v, want ErrConfig", err)
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

// TestShardOfMatchesFamilyRoute pins the route to the expression it
// replaced — Murmur64 of the 11-byte key under the router seed, which a
// one-function hash family's first index was — so sharded snapshots written
// before the change keep restoring into the shards their flows route to.
func TestShardOfMatchesFamilyRoute(t *testing.T) {
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
			if got, want := s.ShardOf(tup, packet.Outgoing), int(hashfam.Murmur64(out[:], 0x5ead5ead)&mask); got != want {
				t.Fatalf("%d shards, outgoing %+v: shard %d, want %d", n, tup, got, want)
			}
			if got, want := s.ShardOf(tup, packet.Incoming), int(hashfam.Murmur64(in[:], 0x5ead5ead)&mask); got != want {
				t.Fatalf("%d shards, incoming %+v: shard %d, want %d", n, tup, got, want)
			}
		}
	}
}

// TestShardedSnapshotBytesPinned pins what a sharded filter writes after a
// fixed trace, across changes to how its batches are judged: four shards
// with a ratio APD policy, fed a seeded trace in unaligned batches, must
// snapshot to the bytes whose SHA-256 is below. The round-trip tests only
// compare a snapshot with its own restore; this one fails when the routing,
// the per-shard packet order, a coin flip or the encoding moves.
func TestShardedSnapshotBytesPinned(t *testing.T) {
	const want = "0f61a238653aa13f54549bd433201fcfd60c092245d420307fef9eaf3dc7d811"
	rp, err := NewRatioPolicy(1, 3, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSharded(4, WithOrder(12), WithSeed(41), WithAPD(rp))
	if err != nil {
		t.Fatal(err)
	}
	pkts := diffTrace(50_000, 17)
	var out []filtering.Verdict
	for off := 0; off < len(pkts); off += 777 {
		out = s.ProcessBatchInto(pkts[off:min(off+777, len(pkts))], out)
	}
	if st := s.Stats(); st.Rotations == 0 || st.APDSpared == 0 || st.Counters.InDropped == 0 {
		t.Fatalf("trace exercises too little: %+v", st)
	}
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Errorf("sharded snapshot (%d B) SHA-256 %s, want %s", buf.Len(), got, want)
	}
}

// shardSlots is what the pump computes at decode for a sharded filter: each
// packet's ShardOf.
func shardSlots(s *Sharded, pkts []packet.Packet) []int32 {
	slots := make([]int32, len(pkts))
	for i := range pkts {
		slots[i] = int32(s.ShardOf(pkts[i].Tuple, pkts[i].Dir))
	}
	return slots
}

// TestShardedRejectsHostileSlots: a slot that is not ShardOf's answer, or
// pairs not two words per packet, are a caller bug, and the ordered half
// catches them before the batch touches anything — the panic names the
// problem, no shard has moved, and the filter judges the next batch as if
// nothing happened.
func TestShardedRejectsHostileSlots(t *testing.T) {
	mk := func() *Sharded {
		rp, err := NewRatioPolicy(1, 3, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSharded(4, WithOrder(12), WithSeed(3), WithAPD(rp))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := mk()
	pkts := diffTrace(512, 9)
	slots := shardSlots(s, pkts)
	pairs := s.HashRouted(pkts, slots, nil)
	s.ProcessHashedInto(pkts[:256], slots[:256], pairs[:512], nil) // some state to disturb
	before := s.ShardStats()

	hostile := func(name, wantMsg string, slots []int32, pairs []uint64) {
		t.Helper()
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, wantMsg) {
				t.Errorf("%s: panic %q, want one containing %q", name, msg, wantMsg)
			}
			if !reflect.DeepEqual(s.ShardStats(), before) {
				t.Errorf("%s: the rejected batch moved shard state", name)
			}
		}()
		s.ProcessHashedInto(pkts[256:], slots, pairs, nil)
	}
	bad := func(at int, slot int32) []int32 {
		b := append([]int32(nil), slots[256:]...)
		b[at] = slot
		return b
	}
	hostile("slot -1", "core: slot -1 outside [0, 4)", bad(255, -1), pairs[512:])
	hostile("slot Shards()", "core: slot 4 outside [0, 4)", bad(0, 4), pairs[512:])
	hostile("short slice", "255 slots for 256 packets", slots[257:], pairs[512:])
	hostile("short pairs", "511 pair words for 256 packets", slots[256:], pairs[513:])

	ref := mk()
	ref.ProcessBatchInto(pkts[:256], nil)
	want := ref.ProcessBatchInto(pkts[256:], nil)
	if got := s.ProcessHashedInto(pkts[256:], slots[256:], pairs[512:], nil); !reflect.DeepEqual(got, want) {
		t.Error("verdicts after the rejected batches differ from a filter that never saw them")
	}
	if !reflect.DeepEqual(s.ShardStats(), ref.ShardStats()) {
		t.Error("shard state after the rejected batches differs from a filter that never saw them")
	}
}
