package pump

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"bitmapfilter/internal/core"
	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/spec"
	"bitmapfilter/internal/tenant"
)

// FuzzPumpSpec runs the harness's traffic, encoded among frames the filter
// must never see (spec.Wire), through the pump at W = 1, 2 and 4 over each
// filter the commit step judges — a single filter, a sharded one, a fleet —
// behind a source whose batches are ragged and whose reads jitter, so that
// workers publish out of order. What the commit step fed the filter is
// checked against the model fed the packets the frames decode to, those a
// client network owns, in source order: the verdicts, every member's clock,
// marks and counters. And the pump's own share: one ProcessHashedInto per
// source batch, in source order, with no gap or repeat; with one worker the
// filter judged on Run's goroutine and no commit foreign; the decode errors
// by class, the unrouted frames and the tallies counted; Snapshot's
// counters the filter's.
//
// A seed runs through all nine pumps. An input the fuzzer made runs through
// one, picked by its checksum: the fuzzer runs an input it finds
// interesting hundreds of times more to minimize it, which through nine
// pumps takes tens of seconds.
func FuzzPumpSpec(f *testing.F) {
	seeds := spec.Seeds(100_000)
	for _, seed := range seeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		wire, err := spec.NewWire(spec.Decode(data))
		if err != nil {
			t.Fatal(err)
		}
		pick := -1
		if !slices.ContainsFunc(seeds, func(seed []byte) bool { return bytes.Equal(seed, data) }) {
			pick = int(crc32.ChecksumIEEE(data) % 9)
		}
		pumps := 0
		for _, sk := range []string{"single", "shards", "fleet"} {
			for _, workers := range []int{1, 2, 4} {
				if pick < 0 || pick == pumps {
					t.Run(fmt.Sprintf("%s/W=%d", sk, workers), func(t *testing.T) { checkPump(t, wire, sk, workers) })
				}
				pumps++
			}
		}
	})
}

func checkPump(t *testing.T, wire *spec.Wire, sink string, workers int) {
	bf, log, states, model := specSink(t, sink)
	src := &spec.Source{Frames: wire.Frames, Ragged: true, Jitter: true}
	p := New(Config{Source: src, Filter: bf, Subnets: spec.Prefixes, Batch: 64, Workers: workers})
	runner := goroutineID()
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}

	owner := &spec.Group{Prefixes: spec.Prefixes}
	var batches []judgedBatch
	var verdicts []filtering.Verdict
	var unrouted uint64
	errs := map[string]uint64{}
	frame := 0
	for _, n := range src.Sizes {
		var b judgedBatch
		for i := frame; i < frame+n; i++ {
			switch pkt := wire.Pkts[i]; {
			case wire.Errs[i] != "":
				errs[wire.Errs[i]]++
			case owner.Route(pkt.Tuple, pkt.Dir) < 0:
				unrouted++
			default:
				if b.n++; b.n == 1 {
					b.first = pkt.Time
				}
				verdicts = append(verdicts, model.Process(pkt))
			}
		}
		batches, frame = append(batches, b), frame+n
	}
	if frame != len(wire.Frames) {
		t.Fatalf("the source delivered %d frames of %d", frame, len(wire.Frames))
	}
	if !reflect.DeepEqual(log.batches, batches) {
		t.Errorf("the filter judged %d batches, the source delivered %d: the first difference is at %d", len(log.batches), len(batches), firstDifference(log.batches, batches))
	}
	for i := range verdicts {
		if i >= len(log.verdicts) || log.verdicts[i] != verdicts[i] {
			t.Fatalf("verdict %d of %d: %v, the model's %v", i, len(log.verdicts), log.verdicts[i:min(i+1, len(log.verdicts))], verdicts[i])
		}
	}
	if got, want := states(), model.States(); !reflect.DeepEqual(got, want) {
		t.Errorf("members\n  %+v\n  the model's %+v", got, want)
	}
	s, c := p.Snapshot(), model.Counters()
	if s.Frames != uint64(frame) || s.Unrouted != unrouted || s.Outgoing != c.OutPackets || s.Incoming != c.InPackets || s.Passed != c.InPassed || s.Dropped != c.InDropped {
		t.Errorf("pump: %d frames, %d unrouted, %d out, %d in, %d passed, %d dropped; want %d, %d and the model's %+v",
			s.Frames, s.Unrouted, s.Outgoing, s.Incoming, s.Passed, s.Dropped, frame, unrouted, c)
	}
	for i, class := range DecodeClasses {
		if s.DecodeErrors[i] != errs[class] {
			t.Errorf("decode errors (%s) = %d, want %d", class, s.DecodeErrors[i], errs[class])
		}
	}
	if s.Counters != bf.Counters() || s.Counters != c {
		t.Errorf("shown counters %+v, the filter holds %+v, the model %+v", s.Counters, bf.Counters(), c)
	}
	if s.Workers != workers || (workers == 1 && (s.ForeignCommits != 0 || (log.on != runner && len(log.batches) > 0))) {
		t.Errorf("%d workers, %d foreign commits, the filter judged on goroutine %d and Run called on %d", s.Workers, s.ForeignCommits, log.on, runner)
	}
}

// specSink builds a filter of the kind sink names behind a judgeLog, the
// States of its members, and the model of it: a single filter with a ratio
// APD policy, two shards of it, or a fleet of three tenants over
// spec.Prefixes.
func specSink(t *testing.T, sink string) (filtering.BatchFilter, *judgeLog, func() []spec.State, *spec.Group) {
	c := spec.Config{Order: 12, Vectors: 4, Hashes: 3, RotateEvery: spec.RotateEvery, Seed: 7, APD: spec.APD{Low: 1, High: 3, Window: 100 * time.Millisecond}}
	opts := func(c spec.Config) []core.Option {
		o := []core.Option{core.WithOrder(c.Order), core.WithVectors(c.Vectors), core.WithHashes(c.Hashes), core.WithRotateEvery(c.RotateEvery), core.WithSeed(c.Seed)}
		if c.APD.Window > 0 {
			p, err := core.NewRatioPolicy(c.APD.Low, c.APD.High, c.APD.Window)
			if err != nil {
				t.Fatal(err)
			}
			o = append(o, core.WithAPD(p))
		}
		return o
	}
	log := &judgeLog{}
	switch sink {
	case "single":
		f, err := core.New(opts(c)...)
		if err != nil {
			t.Fatal(err)
		}
		return loggedFilter{f, log}, log, func() []spec.State { return statesOf(f.Stats()) }, spec.NewGroup([]spec.Config{c}, nil)
	case "shards":
		s, err := core.NewSharded(2, opts(c)...)
		if err != nil {
			t.Fatal(err)
		}
		return loggedShards{s, log}, log, func() []spec.State { return statesOf(s.MemberStats()...) }, spec.NewGroup([]spec.Config{c, c}, nil)
	}
	cs := []spec.Config{c, {Order: 11, Vectors: 4, Hashes: 4, RotateEvery: spec.RotateEvery, Seed: 8, FullTuple: true}, {Order: 10, Vectors: 3, Hashes: 3, RotateEvery: 2 * spec.RotateEvery, Seed: 9}}
	var tcs []tenant.Config
	for i, c := range cs {
		o := opts(c)
		if c.FullTuple {
			o = append(o, core.WithTuplePolicy(core.FullTuple))
		}
		tcs = append(tcs, tenant.Config{ID: strconv.Itoa(i), Prefix: spec.Prefixes[i], Options: o})
	}
	set, err := tenant.NewSet(tenant.SetConfig{Tenants: tcs})
	if err != nil {
		t.Fatal(err)
	}
	return loggedFleet{set, log}, log, func() []spec.State { return statesOf(set.MemberStats()...) }, spec.NewGroup(cs, spec.Prefixes)
}

func statesOf(stats ...core.Stats) (out []spec.State) {
	for _, s := range stats {
		out = append(out, spec.State{Order: s.Order, Hashes: s.Hashes, Idx: s.CurrentIndex, Now: s.Now, Next: s.NextRotation,
			Rotations: s.Rotations, Marks: s.Marks, APDSpared: s.APDSpared, Counters: s.Counters, DropProbability: s.APDDropProbability})
	}
	return out
}

// judgedBatch is one call of the ordered half: its packet count, and the
// first one's time.
type judgedBatch struct {
	n     int
	first time.Duration
}

// judgeLog is what the commit step handed the filter: every batch in commit
// order, the verdicts, and the goroutine of the first call. Every call is
// made under the commit lock or the group's, and Run joins the workers
// before it returns.
type judgeLog struct {
	batches  []judgedBatch
	verdicts []filtering.Verdict
	on       uint64
}

func (l *judgeLog) log(pkts []packet.Packet, out []filtering.Verdict) []filtering.Verdict {
	if l.on == 0 {
		l.on = goroutineID()
	}
	b := judgedBatch{n: len(pkts)}
	if len(pkts) > 0 {
		b.first = pkts[0].Time
	}
	l.batches, l.verdicts = append(l.batches, b), append(l.verdicts, out...)
	return out
}

type loggedFilter struct {
	*core.Filter
	*judgeLog
}

func (f loggedFilter) ProcessHashedInto(pkts []packet.Packet, pairs []uint64, out []filtering.Verdict) []filtering.Verdict {
	return f.log(pkts, f.Filter.ProcessHashedInto(pkts, pairs, out))
}

type loggedShards struct {
	*core.Sharded
	*judgeLog
}

func (f loggedShards) ProcessHashedInto(pkts []packet.Packet, slots []int32, pairs []uint64, out []filtering.Verdict) []filtering.Verdict {
	return f.log(pkts, f.Sharded.ProcessHashedInto(pkts, slots, pairs, out))
}

type loggedFleet struct {
	*tenant.Set
	*judgeLog
}

func (f loggedFleet) ProcessHashedInto(pkts []packet.Packet, slots []int32, pairs []uint64, out []filtering.Verdict) []filtering.Verdict {
	return f.log(pkts, f.Set.ProcessHashedInto(pkts, slots, pairs, out))
}

func firstDifference(a, b []judgedBatch) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// goroutineID is the calling goroutine's number, from its stack's header.
func goroutineID() uint64 {
	var buf [64]byte
	id, err := strconv.ParseUint(strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1], 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}
