package core

import (
	"bytes"
	"fmt"
	"math/bits"
	"reflect"
	"sync"
	"testing"
	"time"
	"unsafe"

	"bitmapfilter/internal/bitvector"
	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/spec"
)

// specCase is one entry point the harness drives, over a filter of its own
// configuration: every case is checked against the model, none against
// another. The chunked kernel runs at chunk sizes on both sides of
// chunkSize, the hashed halves with a rotation due between the hash and the
// touch at orders on both sides of prefetchMinOrder, the shards through the
// three ways in, and both §5.3 indicators on a filter and on shards, where
// each shard's bandwidth policy measures 1/S of the link.
type specCase struct {
	name   string
	cfg    spec.Config
	shards int // 0: a bare filter
	judge  func(e *specTarget, pkts []packet.Packet) []filtering.Verdict
}

var (
	ratioAPD     = spec.APD{Low: 1, High: 3, Window: 100 * time.Millisecond}
	bandwidthAPD = spec.APD{Bandwidth: true, Capacity: 40e6, Window: 100 * time.Millisecond}
	specGeometry = spec.Config{Order: 12, Vectors: 4, Hashes: 3, RotateEvery: spec.RotateEvery, Seed: 5, APD: ratioAPD}
)

var specCases = []specCase{
	{name: "Process", cfg: specGeometry, judge: perPacket},
	{name: "ProcessBatchInto/31", cfg: withAPD(specGeometry, bandwidthAPD), judge: chunked(31)},
	{name: "ProcessBatchInto/32", cfg: spec.Config{Order: 12, Vectors: 4, Hashes: 5, RotateEvery: spec.RotateEvery, Seed: 6, FullTuple: true}, judge: chunked(32)},
	{name: "ProcessBatchInto/33", cfg: spec.Config{Order: 11, Vectors: 3, Hashes: 3, RotateEvery: spec.RotateEvery, Seed: 7, FullTuple: true, CurrentOnly: true, APD: ratioAPD}, judge: chunked(33)},
	{name: "ProcessHashedInto/order=12", cfg: spec.Config{Order: 12, Vectors: 4, Hashes: 2, RotateEvery: spec.RotateEvery, Seed: 8, CurrentOnly: true}, judge: hashed},
	// At order 25 a rotation clears 4 MiB of the filter's vector: every
	// 16 Δt, the long run clears 5 GB rather than 20.
	{name: "ProcessHashedInto/order=25", cfg: spec.Config{Order: 25, Vectors: 2, Hashes: 3, RotateEvery: 16 * spec.RotateEvery, Seed: 9, APD: ratioAPD}, judge: hashed},
	{name: "Sharded/Process", cfg: specGeometry, shards: 4, judge: perPacket},
	{name: "Sharded/ProcessBatchInto", cfg: spec.Config{Order: 11, Vectors: 2, Hashes: 4, RotateEvery: spec.RotateEvery, Seed: 10}, shards: 2, judge: chunked(613)},
	{name: "Sharded/HashRouted", cfg: withAPD(specGeometry, bandwidthAPD), shards: 4, judge: hashed},
}

func withAPD(c spec.Config, apd spec.APD) spec.Config {
	c.APD = apd
	return c
}

// FuzzSpec drives every entry point of the filter and of a sharded one
// against the model (package spec), comparing after every op the verdicts,
// each filter's clock, marks, counters and APD drop probability and — at the
// last op, after every restore and every 256th op — every bit of every
// vector. The seed corpus's long run is a million packets (a hundred
// thousand under -short).
func FuzzSpec(f *testing.F) {
	long := 1_000_000
	if testing.Short() {
		long = 100_000
	}
	for _, seed := range spec.Seeds(long) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		all := spec.Decode(data)
		for _, c := range specCases {
			t.Run(c.name, func(t *testing.T) { c.run(t, all) })
		}
	})
}

// run drives the case over ops against a fresh model: verdicts and states
// after every op, and every vector bit at the last op, after every restore
// and every 256th op.
func (c *specCase) run(t *testing.T, ops []spec.Op) (*specTarget, *spec.Group) {
	t.Helper()
	e, model := c.build(t)
	spec.Run(t, ops, e, model, func(op int) {
		if op == len(ops)-1 || op%256 == 0 || ops[op].Kind == spec.Restore {
			e.checkBits(t, model)
		}
	})
	return e, model
}

// steppedTrace is spec.Trace with every 40th packet stamped 3 ms early, so
// that batches carry time running backwards.
func steppedTrace(n int, seed uint64) []packet.Packet {
	pkts := spec.Trace(n, seed)
	for i := 40; i < len(pkts); i += 40 {
		pkts[i].Time -= min(pkts[i].Time, 3*time.Millisecond)
	}
	return pkts
}

// cut is pkts as Packets ops of the sizes given, in turn.
func cut(pkts []packet.Packet, sizes ...int) []spec.Op {
	var ops []spec.Op
	for at, i := 0, 0; at < len(pkts); i++ {
		end := min(at+sizes[i%len(sizes)], len(pkts))
		ops = append(ops, spec.Op{Kind: spec.Packets, Pkts: pkts[at:end], Now: pkts[end-1].Time})
		at = end
	}
	return ops
}

// mustBeLively fails t unless the model's run rotated at least rotations
// times, both passed and dropped packets in, and, under APD, spared some.
func mustBeLively(t *testing.T, model *spec.Group, rotations uint64) {
	t.Helper()
	var st spec.State
	for _, m := range model.States() {
		st.Rotations += m.Rotations
		st.APDSpared += m.APDSpared
		st.Counters.Add(m.Counters)
	}
	if st.Rotations < rotations || st.Counters.InPassed == 0 || st.Counters.InDropped == 0 || (model.Members[0].APD.Window > 0 && st.APDSpared == 0) {
		t.Fatalf("trace too tame: %+v", st)
	}
}

// TestProcessHashedMatchesProcessBatch holds the two halves the pump calls
// (HashBatch, then ProcessHashedInto with a rotation due between them) and
// ProcessBatchInto to the model, cut at batch sizes on both sides of
// chunkSize, under both tuple and both mark policies, with APD on and off,
// at orders on both sides of prefetchMinOrder up to client_mix_o28's: the two
// entry points match because each matches the model.
func TestProcessHashedMatchesProcessBatch(t *testing.T) {
	pkts := steppedTrace(6000, 23)
	geometry := func(order uint, full, current bool, apd spec.APD) spec.Config {
		return spec.Config{Order: order, Vectors: 4, Hashes: 3, RotateEvery: spec.RotateEvery, Seed: 5, FullTuple: full, CurrentOnly: current, APD: apd}
	}
	for _, tc := range []struct {
		name string
		cfg  spec.Config
	}{
		{"partial/all", geometry(12, false, false, spec.APD{})},
		{"partial/all/apd", geometry(12, false, false, ratioAPD)},
		{"full/all", geometry(12, true, false, spec.APD{})},
		{"partial/current", geometry(12, false, true, spec.APD{})},
		{"full/current/apd", geometry(12, true, true, ratioAPD)},
		{"order=25/partial/all/apd", geometry(25, false, false, ratioAPD)},
		{"order=25/full/current", geometry(25, true, true, spec.APD{})},
		// client_mix_o28's filter, rotating every 4 Δt: a rotation clears
		// 32 MiB of its vector, 30 times over the trace rather than 120.
		{"order=28/partial/all", spec.Config{Order: 28, Vectors: 4, Hashes: 3, RotateEvery: 4 * spec.RotateEvery, Seed: 5}},
	} {
		for _, batch := range []int{1, 31, 32, 33, 512, 1000} {
			t.Run(fmt.Sprintf("%s/batch=%d", tc.name, batch), func(t *testing.T) {
				ops := cut(pkts, batch)
				for _, judge := range []func(*specTarget, []packet.Packet) []filtering.Verdict{hashed, chunked(batch)} {
					c := specCase{cfg: tc.cfg, judge: judge}
					e, model := c.run(t, ops)
					if f := e.bf.(*Filter); f.prefetching != (tc.cfg.Order >= prefetchMinOrder) {
						t.Fatalf("prefetching %v at order %d", f.prefetching, tc.cfg.Order)
					}
					mustBeLively(t, model, 20)
				}
			})
		}
	}
}

// TestChunkedKernelMatchesReference holds the chunked kernel to the model at
// chunk cuts around chunkSize, APD on and off, on a trace whose rotations
// fall inside chunks and whose replies follow their requests within one:
// the kernel hashes a chunk ahead, and a mark made earlier in the chunk must
// still admit the reply behind it.
func TestChunkedKernelMatchesReference(t *testing.T) {
	pkts := steppedTrace(6000, 11)
	cfg := spec.Config{Order: 12, Vectors: 4, Hashes: 3, RotateEvery: spec.RotateEvery, Seed: 5}
	ref, inChunk, sameChunkReplies := spec.New(cfg), 0, 0
	for i, p := range pkts {
		before := ref.Rotations
		ref.Process(p)
		if ref.Rotations != before && i%chunkSize != 0 {
			inChunk++
		}
		for j := i &^ (chunkSize - 1); p.Dir == packet.Incoming && j < i; j++ {
			if pkts[j].Dir == packet.Outgoing && pkts[j].Tuple.Reverse() == p.Tuple {
				sameChunkReplies++
				break
			}
		}
	}
	if inChunk < 10 || sameChunkReplies < 10 {
		t.Fatalf("trace too tame: %d rotations inside a chunk, %d replies inside their request's", inChunk, sameChunkReplies)
	}
	for _, apd := range []spec.APD{{}, ratioAPD} {
		cfg.APD = apd
		for _, batch := range []int{1, 31, 32, 33, 64, 512} {
			c := specCase{cfg: cfg, judge: chunked(batch)}
			_, model := c.run(t, cut(pkts, batch))
			mustBeLively(t, model, 20)
		}
	}
}

// TestProcessBatchMatchesSequential holds per-packet Process and
// ProcessBatchInto, cut at sizes from one packet to the whole trace, to the
// model, APD on.
func TestProcessBatchMatchesSequential(t *testing.T) {
	pkts := spec.Trace(4000, 42)
	cfg := spec.Config{Order: 12, Vectors: 4, Hashes: 3, RotateEvery: spec.RotateEvery, Seed: 9, APD: ratioAPD}
	for _, chunk := range []int{1, 7, 64, 1000, len(pkts)} {
		for _, judge := range []func(*specTarget, []packet.Packet) []filtering.Verdict{perPacket, chunked(chunk)} {
			c := specCase{cfg: cfg, judge: judge}
			_, model := c.run(t, cut(pkts, chunk))
			mustBeLively(t, model, 20)
		}
	}
}

// TestShardedBatchMatchesSequential holds a sharded filter's three ways in
// (per-packet Process, ProcessBatchInto, and HashRouted then
// ProcessHashedInto with a rotation due between them) to the model's shards.
func TestShardedBatchMatchesSequential(t *testing.T) {
	ops := cut(spec.Trace(3000, 7), 100)
	cfg := spec.Config{Order: 12, Vectors: 4, Hashes: 3, RotateEvery: spec.RotateEvery, Seed: 3}
	for _, judge := range []func(*specTarget, []packet.Packet) []filtering.Verdict{perPacket, chunked(100), hashed} {
		c := specCase{cfg: cfg, shards: 4, judge: judge}
		_, model := c.run(t, ops)
		mustBeLively(t, model, 20)
	}
}

// TestProcessBatchIntoChunkedReuse cuts a trace raggedly, from one packet
// to 512, and judges each cut with one ProcessBatchInto into the same
// recycled verdict buffer, on a filter and on a sharded one, against the
// model.
func TestProcessBatchIntoChunkedReuse(t *testing.T) {
	ops := cut(spec.Trace(3000, 5), 1, 300, 7, 512, 64, 2, 100)
	cfg := spec.Config{Order: 12, Vectors: 4, Hashes: 3, RotateEvery: spec.RotateEvery, Seed: 21}
	for name, shards := range map[string]int{"filter": 0, "sharded": 4} {
		t.Run(name, func(t *testing.T) {
			c := specCase{cfg: cfg, shards: shards, judge: chunked(512)}
			_, model := c.run(t, ops)
			mustBeLively(t, model, 20)
		})
	}
}

// TestBatchDifferentialMillion is the long run: a million packets (a
// hundred thousand under -short) in unaligned cuts of 613 through a filter
// and a sharded one, APD on and off, and through the sharded filter's halves,
// against the model: the filter and the halves drop by the ratio, the shards
// by the bandwidth.
func TestBatchDifferentialMillion(t *testing.T) {
	n := 1_000_000
	if testing.Short() {
		n = 100_000
	}
	ops := cut(spec.Trace(n, 1234), 613)
	filter := spec.Config{Order: 16, Vectors: 4, Hashes: 3, RotateEvery: spec.RotateEvery, Seed: 77, APD: ratioAPD}
	shard := spec.Config{Order: 14, Vectors: 4, Hashes: 3, RotateEvery: spec.RotateEvery, Seed: 77}
	for _, c := range []specCase{
		{name: "filter", cfg: filter, judge: chunked(613)},
		{name: "sharded", cfg: shard, shards: 4, judge: chunked(613)},
		{name: "sharded+apd", cfg: withAPD(shard, bandwidthAPD), shards: 4, judge: chunked(613)},
		{name: "sharded+apd+routed", cfg: withAPD(shard, ratioAPD), shards: 4, judge: hashed},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, model := c.run(t, ops)
			mustBeLively(t, model, 1000)
		})
	}
}

// TestHashBatchConcurrentWithJudge hashes a trace's batches on four
// goroutines while the judge consumes them in order, as the pump's workers
// and commit step do, and holds the verdicts and the filter's state to the
// model's.
func TestHashBatchConcurrentWithJudge(t *testing.T) {
	pkts := steppedTrace(8000, 31)
	const batch, hashers = 100, 4
	cfg := spec.Config{Order: 12, Vectors: 4, Hashes: 3, RotateEvery: spec.RotateEvery, Seed: 5}
	model := spec.NewGroup([]spec.Config{cfg}, nil)
	t.Run("filter", func(t *testing.T) {
		f := MustNew(specOptions(cfg)...)
		h := f.Hasher()
		batches := len(pkts) / batch
		ready := make([]chan []uint64, batches)
		for i := range ready {
			ready[i] = make(chan []uint64, 1)
		}
		var wg sync.WaitGroup
		for g := 0; g < hashers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := g; i < batches; i += hashers {
					ready[i] <- h.HashBatch(pkts[i*batch:(i+1)*batch], nil)
				}
			}()
		}
		var out []filtering.Verdict
		for i := 0; i < batches; i++ {
			chunk := pkts[i*batch : (i+1)*batch]
			out = f.ProcessHashedInto(chunk, <-ready[i], out)
			for j, p := range chunk {
				if want := model.Process(p); out[j] != want {
					t.Fatalf("verdict[%d] = %v, the model's %v", i*batch+j, out[j], want)
				}
			}
		}
		wg.Wait()
		if got, want := stateOf(f.Stats()), model.States()[0]; got != want {
			t.Errorf("state diverged:\n  got   %+v\n  model %+v", got, want)
		}
		mustBeLively(t, model, 20)
	})
}

// specTarget is a bare filter or a sharded one, judged the case's way.
type specTarget struct {
	c     *specCase
	t     *testing.T
	bf    Snapshottable // *Filter or *Sharded
	out   []filtering.Verdict
	pairs []uint64
	slots []int32
	snap  bytes.Buffer
}

// build is the case's filter and its model: shard i's bandwidth policy, a
// rescaled clone, measures 1/S of the link (PolicyShardScaler).
func (c *specCase) build(t *testing.T) (*specTarget, *spec.Group) {
	e := &specTarget{c: c, t: t}
	cs := make([]spec.Config, max(c.shards, 1))
	for i := range cs {
		cs[i] = c.cfg
		cs[i].APD.Capacity /= float64(len(cs))
	}
	opts := append(specOptions(c.cfg), e.apd()...)
	var err error
	if c.shards == 0 {
		e.bf, err = New(opts...)
	} else {
		e.bf, err = NewSharded(c.shards, opts...)
	}
	if err != nil {
		t.Fatal(err)
	}
	return e, spec.NewGroup(cs, nil)
}

// apd is the option that gives the filter an empty policy of the case's APD.
func (e *specTarget) apd() []Option {
	a := e.c.cfg.APD
	if a.Window == 0 {
		return nil
	}
	var p DropPolicy
	var err error
	if a.Bandwidth {
		p, err = NewBandwidthPolicy(a.Capacity, a.Window)
	} else {
		p, err = NewRatioPolicy(a.Low, a.High, a.Window)
	}
	if err != nil {
		e.t.Fatal(err)
	}
	return []Option{WithAPD(p)}
}

func specOptions(c spec.Config) []Option {
	opts := []Option{WithOrder(c.Order), WithVectors(c.Vectors), WithHashes(c.Hashes), WithRotateEvery(c.RotateEvery), WithSeed(c.Seed)}
	if c.CurrentOnly {
		opts = append(opts, WithMarkPolicy(MarkCurrentOnly))
	}
	if c.FullTuple {
		opts = append(opts, WithTuplePolicy(FullTuple))
	}
	return opts
}

func perPacket(e *specTarget, pkts []packet.Packet) []filtering.Verdict {
	e.out = e.out[:0]
	for _, p := range pkts {
		e.out = append(e.out, e.bf.Process(p))
	}
	return e.out
}

func chunked(size int) func(e *specTarget, pkts []packet.Packet) []filtering.Verdict {
	return func(e *specTarget, pkts []packet.Packet) []filtering.Verdict {
		var got []filtering.Verdict
		for at := 0; at < len(pkts); at += size {
			e.out = e.bf.ProcessBatchInto(pkts[at:min(at+size, len(pkts))], e.out)
			got = append(got, e.out...)
		}
		return got
	}
}

// hashed hashes the batch, then moves the clock of the filter that judges
// its first packet to that packet's time — a rotation due falls between the
// hash and the touch — and judges the ordered half.
func hashed(e *specTarget, pkts []packet.Packet) []filtering.Verdict {
	if f, ok := e.bf.(*Filter); ok {
		e.pairs = f.Hasher().HashBatch(pkts, e.pairs)
		f.AdvanceTo(pkts[0].Time)
		e.out = f.ProcessHashedInto(pkts, e.pairs, e.out)
		return e.out
	}
	s := e.bf.(*Sharded)
	e.slots = e.slots[:0]
	for _, p := range pkts {
		e.slots = append(e.slots, int32(s.ShardOf(p.Tuple, p.Dir)))
	}
	e.pairs = s.HashRouted(pkts, e.slots, e.pairs)
	e.members(func(fs []*Filter) { fs[e.slots[0]].AdvanceTo(pkts[0].Time) })
	e.out = s.ProcessHashedInto(pkts, e.slots, e.pairs, e.out)
	return e.out
}

func (e *specTarget) Judge(pkts []packet.Packet) []filtering.Verdict { return e.c.judge(e, pkts) }
func (e *specTarget) AdvanceTo(now time.Duration)                    { e.bf.AdvanceTo(now) }
func (e *specTarget) Punch(h packet.Tuple)                           { e.bf.PunchHole(h.Src, h.SrcPort, h.Dst, h.Proto) }
func (e *specTarget) Counters() filtering.Counters                   { return e.bf.Counters() }

func (e *specTarget) Rotate(i int) bool {
	e.members(func(fs []*Filter) { fs[i].Rotate() })
	return true
}

func (e *specTarget) Restore([]packet.Packet) {
	e.snap.Reset()
	err := e.bf.WriteSnapshot(&e.snap)
	if err == nil {
		e.bf, err = ReadAnySnapshot(&e.snap, e.apd()...)
	}
	if err != nil {
		e.t.Fatal(err)
	}
}

func (e *specTarget) Rebalance(now time.Duration, _ []packet.Packet) []int {
	e.bf.AdvanceTo(now)
	return nil
}

func (e *specTarget) States() (out []spec.State) {
	e.members(func(fs []*Filter) {
		for _, f := range fs {
			out = append(out, stateOf(f.Stats()))
		}
	})
	return out
}

// members runs fn over the filter's members, under the group's lock.
func (e *specTarget) members(fn func([]*Filter)) {
	if f, ok := e.bf.(*Filter); ok {
		fn([]*Filter{f})
		return
	}
	s := e.bf.(*Sharded)
	s.mu.Lock()
	defer s.mu.Unlock()
	fn(s.filters)
}

// checkBits holds every vector of every member to the model's: its running
// popcount and the ones in its words must each equal the model's set size,
// and every bit the model sets must be set in it — equal counts and a subset
// make equal vectors. Only on a difference are all bits compared, to name
// the first.
func (e *specTarget) checkBits(t *testing.T, model *spec.Group) {
	t.Helper()
	e.members(func(fs []*Filter) {
		for i, f := range fs {
			for v, want := range model.Members[i].Bits {
				got := f.vectors[v]
				if holds(got, want) {
					continue
				}
				for j := range got.Len() {
					if got.Test(j) != want.Test(j) {
						t.Fatalf("member %d vector %d bit %d: %v, the model's %v", i, v, j, got.Test(j), want.Test(j))
					}
				}
				t.Fatalf("member %d vector %d: popcount %d, %d ones in its words, the model's %d", i, v, got.PopCount(), onesIn(got), len(want.Ones))
			}
		}
	})
}

// holds reports whether v holds exactly the model's bits.
func holds(v *bitvector.Vector, model spec.Vector) bool {
	if n := uint64(len(model.Ones)); v.PopCount() != n || onesIn(v) != n {
		return false
	}
	for h := range model.Ones {
		if !v.Test(h) {
			return false
		}
	}
	return true
}

// onesIn is Σ OnesCount64 over v's words, read in place and skipped eight
// at a time where all are zero, as nearly all are at order 28.
func onesIn(v *bitvector.Vector) (n uint64) {
	words := *(*[]uint64)(unsafe.Pointer(reflect.ValueOf(v).Elem().FieldByName("words").UnsafeAddr()))
	for i := 0; i < len(words); i += 8 {
		w := words[i:min(i+8, len(words))]
		if len(w) == 8 && w[0]|w[1]|w[2]|w[3]|w[4]|w[5]|w[6]|w[7] == 0 {
			continue
		}
		for _, x := range w {
			n += uint64(bits.OnesCount64(x))
		}
	}
	return n
}

func stateOf(s Stats) spec.State {
	return spec.State{Order: s.Order, Hashes: s.Hashes, Idx: s.CurrentIndex, Now: s.Now, Next: s.NextRotation,
		Rotations: s.Rotations, Marks: s.Marks, APDSpared: s.APDSpared, Counters: s.Counters, DropProbability: s.APDDropProbability}
}
