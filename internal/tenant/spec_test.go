package tenant_test

import (
	"bytes"
	"testing"
	"time"

	"bitmapfilter/internal/core"
	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/spec"
	"bitmapfilter/internal/tenant"
)

// specFleet is the fleet the harness drives, over spec.Prefixes: a /8 with a
// ratio APD policy, a /16 carved out of it hashing the full tuple with four
// functions, and a third /16 of three vectors rotating every 2 Δt behind a
// bandwidth policy on a link its admitted traffic fills in part. Clients in
// 12.0.0.0/16 are nobody's. The budget resizes them at rebalances.
var specFleet = []spec.Config{
	{Order: 12, Vectors: 4, Hashes: 3, RotateEvery: spec.RotateEvery, Seed: 101, APD: spec.APD{Low: 1, High: 3, Window: 100 * time.Millisecond}},
	{Order: 11, Vectors: 4, Hashes: 4, RotateEvery: spec.RotateEvery, Seed: 102, FullTuple: true},
	{Order: 10, Vectors: 3, Hashes: 3, RotateEvery: 2 * spec.RotateEvery, Seed: 103, APD: spec.APD{Bandwidth: true, Capacity: 10e6, Window: 100 * time.Millisecond}},
}

var specBudget = tenant.Budget{TotalBytes: 48 << 10, TargetPenetration: 0.01}

// FuzzSpec drives a fleet through Process, ProcessBatchInto and its two
// halves — HashRouted with the slots its table gives, then
// ProcessHashedInto — against the model's group of tenants, which routes by
// a linear scan of the prefixes. Restores and rebalances interleave with the
// traffic, a rebalance after a restore among them; through the halves, the
// batch after either is hashed before it, so pairs must survive both. The seed corpus's long run
// is a million packets (a hundred thousand under -short).
func FuzzSpec(f *testing.F) {
	long := 1_000_000
	if testing.Short() {
		long = 100_000
	}
	for _, seed := range spec.Seeds(long) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := spec.Decode(data)
		for name, judge := range map[string]func(e *fleetTarget, pkts []packet.Packet) []filtering.Verdict{
			"Process": func(e *fleetTarget, pkts []packet.Packet) []filtering.Verdict {
				e.out = e.out[:0]
				for _, p := range pkts {
					e.out = append(e.out, e.set.Process(p))
				}
				return e.out
			},
			"ProcessBatchInto": func(e *fleetTarget, pkts []packet.Packet) []filtering.Verdict {
				e.out = e.set.ProcessBatchInto(pkts, e.out)
				return e.out
			},
			"HashRouted": func(e *fleetTarget, pkts []packet.Packet) []filtering.Verdict {
				if !e.ahead {
					e.hash(pkts)
				}
				e.ahead = false
				e.out = e.set.ProcessHashedInto(pkts, e.slots, e.pairs, e.out)
				return e.out
			},
		} {
			t.Run(name, func(t *testing.T) {
				e := &fleetTarget{t: t, judge: judge, halves: name == "HashRouted"}
				tcs := make([]tenant.Config, len(specFleet))
				for i, c := range specFleet {
					tcs[i] = tenant.Config{ID: string(rune('a' + i)), Prefix: spec.Prefixes[i], Options: append(specOptions(c), e.apd(i)...)}
				}
				budget := specBudget
				e.budget = &budget
				e.set = mustSet(t, tenant.SetConfig{Tenants: tcs, Budget: e.budget})
				spec.Run(t, ops, e, spec.NewGroup(specFleet, spec.Prefixes), nil)
			})
		}
	})
}

// fleetTarget is a fleet judged one of the three ways. Through its halves,
// the batch after a restore or a rebalance is hashed before it (ahead).
type fleetTarget struct {
	t      *testing.T
	set    *tenant.Set
	budget *tenant.Budget
	judge  func(e *fleetTarget, pkts []packet.Packet) []filtering.Verdict
	halves bool
	ahead  bool
	out    []filtering.Verdict
	slots  []int32
	pairs  []uint64
}

// hash is the pure half: each packet's slot from the fleet's table, and its
// pair from its tenant's hasher.
func (e *fleetTarget) hash(pkts []packet.Packet) {
	e.slots = e.slots[:0]
	for _, p := range pkts {
		client := p.Tuple.Dst
		if p.Dir == packet.Outgoing {
			client = p.Tuple.Src
		}
		e.slots = append(e.slots, e.set.Routes().Lookup(client))
	}
	e.pairs = e.set.HashRouted(pkts, e.slots, e.pairs)
}

func (e *fleetTarget) hashAhead(next []packet.Packet) {
	if e.ahead = e.halves && len(next) > 0; e.ahead {
		e.hash(next)
	}
}

// apd is tenant i's APD option: an empty policy of its own, or none.
func (e *fleetTarget) apd(i int) []core.Option {
	a := specFleet[i].APD
	if a.Window == 0 {
		return nil
	}
	var p core.DropPolicy
	var err error
	if a.Bandwidth {
		p, err = core.NewBandwidthPolicy(a.Capacity, a.Window)
	} else {
		p, err = core.NewRatioPolicy(a.Low, a.High, a.Window)
	}
	if err != nil {
		e.t.Fatal(err)
	}
	return []core.Option{core.WithAPD(p)}
}

func specOptions(c spec.Config) []core.Option {
	opts := []core.Option{core.WithOrder(c.Order), core.WithVectors(c.Vectors), core.WithHashes(c.Hashes), core.WithRotateEvery(c.RotateEvery), core.WithSeed(c.Seed)}
	if c.FullTuple {
		opts = append(opts, core.WithTuplePolicy(core.FullTuple))
	}
	return opts
}

func (e *fleetTarget) Judge(pkts []packet.Packet) []filtering.Verdict { return e.judge(e, pkts) }
func (e *fleetTarget) AdvanceTo(now time.Duration)                    { e.set.AdvanceTo(now) }
func (e *fleetTarget) Rotate(int) bool                                { return false }
func (e *fleetTarget) Counters() filtering.Counters                   { return e.set.Counters() }

func (e *fleetTarget) Punch(h packet.Tuple) { e.set.PunchHole(h.Src, h.SrcPort, h.Dst, h.Proto) }

// Restore restores the fleet's snapshot with each tenant's APD policy
// re-attached, and its budget.
func (e *fleetTarget) Restore(next []packet.Packet) {
	e.hashAhead(next)
	var buf bytes.Buffer
	if err := e.set.WriteSnapshot(&buf); err != nil {
		e.t.Fatal(err)
	}
	set, err := tenant.ReadSnapshot(&buf, func(id string) []core.Option { return e.apd(int(id[0] - 'a')) })
	if err == nil {
		err = set.AttachBudget(e.budget)
	}
	if err != nil {
		e.t.Fatal(err)
	}
	e.set = set
}

// Rebalance reports the tenants whose geometry it changed: the ones it resized.
func (e *fleetTarget) Rebalance(now time.Duration, next []packet.Packet) (resized []int) {
	e.hashAhead(next)
	before := e.States()
	if _, err := e.set.Rebalance(now); err != nil {
		e.t.Fatal(err)
	}
	for i, st := range e.States() {
		if st.Order != before[i].Order || st.Hashes != before[i].Hashes {
			resized = append(resized, i)
		}
	}
	return resized
}

func (e *fleetTarget) States() (out []spec.State) {
	for _, st := range e.set.TenantStats() {
		s := st.Stats
		out = append(out, spec.State{Order: s.Order, Hashes: s.Hashes, Idx: s.CurrentIndex, Now: s.Now, Next: s.NextRotation,
			Rotations: s.Rotations, Marks: s.Marks, APDSpared: s.APDSpared, Counters: s.Counters, DropProbability: s.APDDropProbability})
	}
	return out
}
