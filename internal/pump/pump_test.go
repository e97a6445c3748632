package pump

import (
	"bytes"
	"io"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bitmapfilter/internal/capture"
	"bitmapfilter/internal/core"
	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/tenant"
)

// The tests here are the ones that have to step a worker by hand. What the
// pump does when it runs free — the differentials against the synchronous
// references, quarantine, back-pressure, drain, observability, for every
// sink at W = 1, 2, 4 — is checked through New, Watch, Run and Snapshot from
// cmd/bfwall's tests, beside the daemon they also drive.

// sinks builds one filter per sink of the commit step — a single filter two
// ways: plain (hashed by the workers) and wrapped (by itself); and the two
// routed filters, a sharded filter and a fleet, hashed by the workers too and
// judged under their own lock.
var sinks = map[string]func(t *testing.T) filtering.BatchFilter{
	"single":  func(t *testing.T) filtering.BatchFilter { return single(t) },
	"wrapped": func(t *testing.T) filtering.BatchFilter { return struct{ filtering.BatchFilter }{single(t)} },
	"shards": func(t *testing.T) filtering.BatchFilter {
		f, err := core.Build(append([]core.Option{core.WithShards(2)}, geometry...)...)
		if err != nil {
			t.Fatal(err)
		}
		return f
	},
	"fleet": func(t *testing.T) filtering.BatchFilter {
		set, err := tenant.NewSet(tenant.SetConfig{Tenants: []tenant.Config{
			{ID: "even", Prefix: packet.PrefixFrom(packet.AddrFrom4(10, 0, 0, 0), 16), Options: geometry},
			{ID: "odd", Prefix: packet.PrefixFrom(packet.AddrFrom4(10, 1, 0, 0), 16), Options: geometry},
		}})
		if err != nil {
			t.Fatal(err)
		}
		return set
	},
}

func single(t *testing.T) *core.Filter {
	f, err := core.New(geometry...)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

var geometry = []core.Option{core.WithOrder(12), core.WithVectors(4), core.WithHashes(3), core.WithRotateEvery(5 * time.Second)}

var subnets = []packet.Prefix{packet.PrefixFrom(packet.AddrFrom4(10, 0, 0, 0), 8)}

// flows returns n outgoing SYNs from clients in 10.0/16 and 10.1/16, and the
// n replies to them: the replies pass only if the filter saw the SYNs first.
func flows(t *testing.T, n int) (syns, replies []capture.Frame) {
	t.Helper()
	frame := func(pkt packet.Packet) capture.Frame {
		data, err := packet.Encode(pkt)
		if err != nil {
			t.Fatal(err)
		}
		return capture.Frame{Time: pkt.Time, Data: data, OrigLen: len(data)}
	}
	server := packet.AddrFrom4(198, 51, 100, 7)
	for i := 0; i < n; i++ {
		out := packet.Tuple{Src: packet.AddrFrom4(10, byte(i%2), 0, byte(i)), Dst: server, SrcPort: uint16(4000 + i), DstPort: 80, Proto: packet.TCP}
		in := packet.Tuple{Src: out.Dst, Dst: out.Src, SrcPort: out.DstPort, DstPort: out.SrcPort, Proto: packet.TCP}
		syns = append(syns, frame(packet.Packet{Time: time.Duration(i) * time.Millisecond, Tuple: out, Dir: packet.Outgoing, Flags: packet.SYN, Length: 60}))
		replies = append(replies, frame(packet.Packet{Time: time.Second + time.Duration(i)*time.Millisecond, Tuple: in, Dir: packet.Incoming, Flags: packet.SYN | packet.ACK, Length: 60}))
	}
	return syns, replies
}

// listSource serves its batches one per read, then io.EOF — or round and
// round, for ever.
type listSource struct {
	batches [][]capture.Frame
	next    int
	forever bool
}

func (s *listSource) ReadBatch(frames []capture.Frame) (int, error) {
	if s.next == len(s.batches) && !s.forever {
		return 0, io.EOF
	}
	batch := s.batches[s.next%len(s.batches)]
	s.next++
	return copy(frames, batch), nil
}

func (s *listSource) Close() error { return nil }

// TestPublishOutOfOrder steps two workers by hand through the one
// interleaving a scheduler cannot be made to produce on demand: the later
// batch is published first. Its worker must find nothing to commit and not
// wait; the worker that publishes the head commits both, in source order —
// the replies of batch 1 pass only behind the SYNs of batch 0, whichever
// sink judges them — and each buffer goes back to the worker that owns it.
func TestPublishOutOfOrder(t *testing.T) {
	for name, build := range sinks {
		t.Run(name, func(t *testing.T) {
			syns, replies := flows(t, 37)
			p := New(Config{Source: &listSource{batches: [][]capture.Frame{syns, replies}}, Filter: build(t), Subnets: subnets, Batch: 37, Workers: 2})
			first, second := p.workers[0], p.workers[1]
			head, next := p.take(first), p.take(second)
			if !p.read(first, head) || !p.read(second, next) || head.seq != 0 || next.seq != 1 {
				t.Fatalf("reads numbered %d and %d, want 0 and 1", head.seq, next.seq)
			}
			p.decodeBatch(head)
			p.decodeBatch(next)

			p.publish(next)
			p.commit(second)
			if s := p.Snapshot(); p.head.Load() != 0 || s.ForeignCommits != 0 || len(second.free) != workerBuffers-1 {
				t.Fatalf("batch 1 published alone: head %d, %d foreign commits, %d buffers free", p.head.Load(), s.ForeignCommits, len(second.free))
			}
			if c := p.bf.Counters(); c.OutPackets+c.InPackets != 0 {
				t.Fatalf("batch 1 published alone was judged: %+v", c)
			}
			p.publish(head)
			p.commit(first)
			if got := p.foreignCommits.Load(); p.head.Load() != 2 || got != 1 {
				t.Errorf("head %d, %d foreign commits; want 2 and 1 (batch 1, committed by the worker that decoded batch 0)", p.head.Load(), got)
			}
			// The source is at its end: Run only drains.
			if err := p.Run(); err != nil {
				t.Fatal(err)
			}
			if len(first.free) != workerBuffers || len(second.free) != workerBuffers {
				t.Errorf("free buffers %d and %d, want all %d back with their owners", len(first.free), len(second.free), workerBuffers)
			}
			s := p.Snapshot()
			if s.Outgoing != 37 || s.Incoming != 37 || s.Passed != 37 {
				t.Errorf("%d out, %d in, %d passed; want 37 of each: the replies were judged behind their SYNs", s.Outgoing, s.Incoming, s.Passed)
			}
			if want := p.bf.Counters(); s.Counters != want {
				t.Errorf("shown counters %+v, the filter holds %+v", s.Counters, want)
			}
		})
	}
}

// TestDecodePanicDropsHashedIndexes: a decode that panics over a buffer that
// still holds hashed packets leaves a poisoned batch with no packets and no
// pairs, so nothing stale can reach the filter; exactly that batch is
// quarantined, and the buffer's next batch is hashed and judged as ever. The
// workers hash a base pair, two words, per packet for a single filter that
// offers its halves and for a routed filter.
func TestDecodePanicDropsHashedIndexes(t *testing.T) {
	for _, name := range []string{"single", "wrapped", "shards", "fleet"} {
		t.Run(name, func(t *testing.T) {
			syns, replies := flows(t, 37)
			p := New(Config{Source: &listSource{batches: [][]capture.Frame{syns, syns, replies}}, Filter: sinks[name](t), Subnets: subnets, Batch: 37, Workers: 1})
			w := p.workers[0]
			step := func(b *batchBuf) {
				p.read(w, b)
				p.decodeBatch(b)
				p.publish(b)
				p.commit(w)
			}
			b := p.take(w)
			step(b)
			want := 37 * 2
			if name == "wrapped" {
				want = 0 // the filter hashes for itself
			}
			if hashes := p.hashed != nil || p.routed != nil; hashes != (want > 0) || len(b.pairs) != want {
				t.Fatalf("%d pair words ride with 37 packets, want %d (the pump hashes: %v)", len(b.pairs), want, hashes)
			}
			for next := <-w.free; next != b; next = <-w.free { // the same buffer again, its pairs still in it
				w.free <- next
			}
			p.read(w, b)
			if len(b.pairs) != want {
				t.Fatalf("the buffer came back with %d pair words, want the %d of its last batch", len(b.pairs), want)
			}
			b.n = len(b.ring) + 1 // what a lying source reports
			p.decodeBatch(b)
			if !b.poisoned || len(b.pkts) != 0 || len(b.pairs) != 0 {
				t.Fatalf("after a contained decode panic: poisoned %v, %d packets, %d pair words", b.poisoned, len(b.pkts), len(b.pairs))
			}
			p.publish(b)
			p.commit(w)
			step(p.take(w))
			s := p.Snapshot()
			// The lie is one frame more than the ring: 38.
			if lie := uint64(len(b.ring) + 1); s.QuarantinedBatches != 1 || s.QuarantinedFrames != lie || p.head.Load() != 3 {
				t.Errorf("quarantined %d batches, %d frames, head %d; want 1, %d and 3", s.QuarantinedBatches, s.QuarantinedFrames, p.head.Load(), lie)
			}
			if s.Outgoing != 37 || s.Incoming != 37 || s.Passed != 37 || s.Counters != p.bf.Counters() {
				t.Errorf("%d out, %d in, %d passed, shown %+v; want 37 of each: batches 0 and 2 judged, batch 1 never", s.Outgoing, s.Incoming, s.Passed, s.Counters)
			}
			if s.CommitBusy <= 0 {
				t.Errorf("three commits held the lock for %v", s.CommitBusy)
			}
			if s.SourceBusy <= 0 {
				t.Errorf("four turns at the source took %v", s.SourceBusy)
			}
			if s.DecodeBusy <= 0 || (s.HashBusy > 0) != (want > 0) {
				t.Errorf("decode busy %v, hash busy %v; want both stamped when the workers hash (%v), decode alone otherwise", s.DecodeBusy, s.HashBusy, want > 0)
			}
		})
	}
}

// TestPumpLockedStrandsNothing: Locked holds the commit lock while Run
// starts and both workers publish every buffer they own — each finds the lock
// taken and goes back to the source, until none has a buffer left and nobody
// is left to commit. Once fn returns, Locked commits what was published: Run
// ends with every frame judged, and the tallies are an unlocked run's.
func TestPumpLockedStrandsNothing(t *testing.T) {
	syns, replies := flows(t, 64)
	var batches [][]capture.Frame
	for i := 0; i < 20; i++ {
		batches = append(batches, syns, replies)
	}
	published := func(p *Pump) (n int) {
		for i := range p.slots {
			if p.slots[i].Load() != nil {
				n++
			}
		}
		return n
	}
	run := func(hold bool) Snapshot {
		p := New(Config{Source: &listSource{batches: batches}, Filter: single(t), Subnets: subnets, Workers: 2})
		done := make(chan error, 1)
		start := func() { go func() { done <- p.Run() }() }
		if hold {
			p.Locked(func() {
				start()
				for deadline := time.Now().Add(10 * time.Second); published(p) < len(p.slots); time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Errorf("under Locked, %d of %d buffers published", published(p), len(p.slots))
						return
					}
				}
			})
		} else {
			start()
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("Run stranded: %d of %d batches committed", p.head.Load(), len(batches))
		}
		return p.Snapshot()
	}
	free, held := run(false), run(true)
	if held.Frames != uint64(64*len(batches)) || held.Outgoing+held.Incoming != held.Frames {
		t.Errorf("%d frames read, %d judged; want all %d", held.Frames, held.Outgoing+held.Incoming, 64*len(batches))
	}
	if tally := func(s Snapshot) [4]uint64 { return [4]uint64{s.Outgoing, s.Incoming, s.Passed, s.Dropped} }; tally(held) != tally(free) {
		t.Errorf("held: %v out/in/pass/drop, unlocked: %v", tally(held), tally(free))
	}
	if held.ForeignCommits < 2*workerBuffers {
		t.Errorf("%d foreign commits; Locked commits the %d batches published while it held the lock", held.ForeignCommits, 2*workerBuffers)
	}
}

// slowJudge sleeps over every batch: the filter is the pump's long stage.
type slowJudge struct {
	filtering.BatchFilter
	perBatch time.Duration
}

func (s *slowJudge) ProcessBatchInto(pkts []packet.Packet, out []filtering.Verdict) []filtering.Verdict {
	time.Sleep(s.perBatch)
	return s.BatchFilter.ProcessBatchInto(pkts, out)
}

// endless serves its frames in batches for ever, until stopped.
type endless struct {
	frames []capture.Frame
	stop   atomic.Bool
}

func (s *endless) ReadBatch(frames []capture.Frame) (int, error) {
	if s.stop.Load() {
		return 0, io.EOF
	}
	return copy(frames, s.frames), nil
}

func (s *endless) Close() error { return nil }

// TestPumpLockedCutsIntoADrain: behind a judge that sleeps 1 ms a batch and a
// source that never runs dry, the worker that holds the commit lock never
// finds the head of the sequence unpublished, so its drain never ends of
// itself. Locked still gets the filter within a few batches, every time: a
// drain yields to a caller waiting in Locked. Once the source stops, Run
// returns with every frame read judged.
func TestPumpLockedCutsIntoADrain(t *testing.T) {
	syns, _ := flows(t, 64)
	src := &endless{frames: syns}
	p := New(Config{Source: src, Filter: &slowJudge{BatchFilter: single(t), perBatch: time.Millisecond}, Subnets: subnets, Workers: 2})
	done := make(chan error, 1)
	go func() { done <- p.Run() }()
	var callers sync.WaitGroup
	for i := 0; i < 20; i++ {
		for head := p.head.Load(); p.head.Load() < head+4; { // a drain under way
			time.Sleep(time.Millisecond)
		}
		lent := make(chan struct{})
		start := time.Now()
		callers.Add(1)
		go func() {
			defer callers.Done()
			p.Locked(func() { close(lent) })
		}()
		select {
		case <-lent:
		case <-time.After(5 * time.Second):
			t.Fatalf("Locked %d still waiting after %v, %d batches committed", i, time.Since(start), p.head.Load())
		}
	}
	src.stop.Store(true)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	callers.Wait()
	if s := p.Snapshot(); s.Outgoing != s.Frames || s.Frames == 0 {
		t.Errorf("%d frames read, %d judged", s.Frames, s.Outgoing)
	}
}

// TestPumpLockedCallersInARow: four goroutines call Locked back to back for
// as long as Run runs, so one nearly always waits in it and the workers
// leave their batches to the callers. Each caller commits what was
// published before it lets go, so the pump is never starved: Run ends with
// every frame judged.
func TestPumpLockedCallersInARow(t *testing.T) {
	syns, replies := flows(t, 64)
	var batches [][]capture.Frame
	for i := 0; i < 50; i++ {
		batches = append(batches, syns, replies)
	}
	p := New(Config{Source: &listSource{batches: batches}, Filter: single(t), Subnets: subnets, Workers: 2})
	stop := make(chan struct{})
	var callers sync.WaitGroup
	defer func() {
		close(stop)
		callers.Wait()
	}()
	for g := 0; g < 4; g++ {
		callers.Add(1)
		go func() {
			defer callers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					p.Locked(func() {})
				}
			}
		}()
	}
	done := make(chan error, 1)
	go func() { done <- p.Run() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("Run starved: %d of %d batches committed", p.head.Load(), len(batches))
	}
	if s := p.Snapshot(); s.Frames != uint64(64*len(batches)) || s.Outgoing+s.Incoming != s.Frames {
		t.Errorf("%d frames read, %d judged; want all %d", s.Frames, s.Outgoing+s.Incoming, 64*len(batches))
	}
}

// slowSource takes its time over every read, the last one (io.EOF) included.
type slowSource struct {
	listSource
	delay time.Duration
	reads int
}

func (s *slowSource) ReadBatch(frames []capture.Frame) (int, error) {
	s.reads++
	time.Sleep(s.delay)
	return s.listSource.ReadBatch(frames)
}

// TestSourceBusyIsTimeInsideReadBatch: SourceBusy is the time inside the
// source's ReadBatch and nothing else. Every read is in it, so it is at
// least reads × the source's delay; a worker's wait for its turn is not, so
// with two workers queueing for a source that is always busy it still fits
// inside the wall (with the wait counted it would be twice that).
func TestSourceBusyIsTimeInsideReadBatch(t *testing.T) {
	for _, workers := range []int{1, 2} {
		syns, replies := flows(t, 37)
		src := &slowSource{listSource: listSource{batches: [][]capture.Frame{syns, replies, syns, replies, syns, replies}}, delay: 2 * time.Millisecond}
		p := New(Config{Source: src, Filter: single(t), Subnets: subnets, Batch: 37, Workers: workers})
		started := time.Now()
		if err := p.Run(); err != nil {
			t.Fatal(err)
		}
		wall := time.Since(started)
		s := p.Snapshot()
		if src.reads != 7 || s.Frames != 6*37 {
			t.Fatalf("W=%d: %d reads delivered %d frames, want 7 and %d", workers, src.reads, s.Frames, 6*37)
		}
		if floor := time.Duration(src.reads) * src.delay; s.SourceBusy < floor || s.SourceBusy > wall {
			t.Errorf("W=%d: SourceBusy %v, want at least the %v the source slept and at most the %v wall", workers, s.SourceBusy, floor, wall)
		}
	}
}

// TestStepZeroAllocs pins the hot-loop contract exactly: buffer reuse,
// zero-copy decode, the slots, publish, commit and each sink's hand-off and
// judging allocate nothing per source batch once warm — one worker stepped
// by hand.
func TestStepZeroAllocs(t *testing.T) {
	for name, build := range sinks {
		t.Run(name, func(t *testing.T) {
			syns, _ := flows(t, 16)
			p := New(Config{Source: &listSource{batches: [][]capture.Frame{syns}, forever: true}, Filter: build(t), Subnets: subnets, Batch: 16, Workers: 1})
			w := p.workers[0]
			step := func() {
				b := p.take(w)
				p.read(w, b)
				p.decodeBatch(b)
				p.publish(b)
				p.commit(w)
			}
			for i := 0; i < 4*workerBuffers; i++ { // warm: every buffer, the verdict slices
				step()
			}
			allocs := testing.AllocsPerRun(200, step)
			if allocs != 0 {
				t.Errorf("the pump allocates %.2f times per source batch", allocs)
			}
			s := p.Snapshot()
			if s.Outgoing != 16*p.head.Load() || p.head.Load() < 200 {
				t.Errorf("judged %d packets of %d batches", s.Outgoing, p.head.Load())
			}
			if s.DecodeBusy <= 0 || s.CommitBusy <= 0 {
				t.Errorf("decode %v, commit %v busy", s.DecodeBusy, s.CommitBusy)
			}
		})
	}
}

// halfJudge judges the first half of its second batch and then panics: a
// fault after the filter has counted some of the batch's packets.
type halfJudge struct {
	filtering.BatchFilter
	calls int
}

func (h *halfJudge) ProcessBatchInto(pkts []packet.Packet, out []filtering.Verdict) []filtering.Verdict {
	if h.calls++; h.calls == 2 {
		h.BatchFilter.ProcessBatchInto(pkts[:len(pkts)/2], out)
		panic("injected fault half way through a batch")
	}
	return h.BatchFilter.ProcessBatchInto(pkts, out)
}

// halfRouted is halfJudge for a routed filter: its ordered half judges
// the first half of the second batch, with the pairs the worker hashed.
type halfRouted struct{ calls int }

type judgeRouted = func(pkts []packet.Packet, slots []int32, pairs []uint64, out []filtering.Verdict) []filtering.Verdict

func (h *halfRouted) judge(next judgeRouted, pkts []packet.Packet, slots []int32, pairs []uint64, out []filtering.Verdict) []filtering.Verdict {
	if h.calls++; h.calls == 2 {
		half := len(pkts) / 2
		next(pkts[:half], slots[:half], pairs[:2*half], out)
		panic("injected fault half way through a batch")
	}
	return next(pkts, slots, pairs, out)
}

type halfJudgeFleet struct {
	*tenant.Set
	halfRouted
}

func (h *halfJudgeFleet) ProcessHashedInto(pkts []packet.Packet, slots []int32, pairs []uint64, out []filtering.Verdict) []filtering.Verdict {
	return h.judge(h.Set.ProcessHashedInto, pkts, slots, pairs, out)
}

type halfJudgeShards struct {
	*core.Sharded
	halfRouted
}

func (h *halfJudgeShards) ProcessHashedInto(pkts []packet.Packet, slots []int32, pairs []uint64, out []filtering.Verdict) []filtering.Verdict {
	return h.judge(h.Sharded.ProcessHashedInto, pkts, slots, pairs, out)
}

// TestPanicMidBatchCountsNothing: the direction and verdict tallies are the
// filter's own counters differenced per batch, and a judge that panics after
// the filter counted part of its batch adds none of it — the batch is
// quarantined, so every frame is judged or quarantined exactly once — while
// the shown counters are the filter's, half batch and all, and the next batch
// is differenced from them; the quarantined batch's buffer is back with its
// worker.
func TestPanicMidBatchCountsNothing(t *testing.T) {
	for name, build := range map[string]func(t *testing.T) filtering.BatchFilter{
		"single": func(t *testing.T) filtering.BatchFilter { return &halfJudge{BatchFilter: single(t)} },
		"shards": func(t *testing.T) filtering.BatchFilter {
			return &halfJudgeShards{Sharded: sinks["shards"](t).(*core.Sharded)}
		},
		"fleet": func(t *testing.T) filtering.BatchFilter { return &halfJudgeFleet{Set: sinks["fleet"](t).(*tenant.Set)} },
	} {
		t.Run(name, func(t *testing.T) {
			syns, replies := flows(t, 40)
			bf := build(t)
			p := New(Config{Source: &listSource{batches: [][]capture.Frame{syns, replies, replies}}, Filter: bf, Subnets: subnets, Batch: 40, Workers: 1})
			if err := p.Run(); err != nil {
				t.Fatal(err)
			}
			s := p.Snapshot()
			if s.QuarantinedBatches != 1 || s.QuarantinedFrames != 40 {
				t.Fatalf("quarantined %d batches, %d frames; want the second batch's 40", s.QuarantinedBatches, s.QuarantinedFrames)
			}
			if s.Outgoing != 40 || s.Incoming != 40 || s.Passed != 40 || s.Dropped != 0 || s.Outgoing+s.Incoming+s.QuarantinedFrames != s.Frames {
				t.Errorf("%d out, %d in (%d passed, %d dropped), %d quarantined of %d frames; want 40, 40 (40, 0), 40 of 120",
					s.Outgoing, s.Incoming, s.Passed, s.Dropped, s.QuarantinedFrames, s.Frames)
			}
			if c := bf.Counters(); s.Counters != c || c.InPackets != 60 {
				t.Errorf("shown counters %+v, the filter holds %+v (60 incoming: 20 before the fault, 40 after)", s.Counters, c)
			}
			if free := len(p.workers[0].free); free != workerBuffers {
				t.Errorf("%d of %d buffers back on the free list: the quarantined batch's did not come back", free, workerBuffers)
			}
		})
	}
}

// verdictLog is a fleet that keeps every verdict it hands back.
type verdictLog struct {
	*tenant.Set
	got []filtering.Verdict
}

func (v *verdictLog) ProcessHashedInto(pkts []packet.Packet, slots []int32, pairs []uint64, out []filtering.Verdict) []filtering.Verdict {
	out = v.Set.ProcessHashedInto(pkts, slots, pairs, out)
	v.got = append(v.got, out...)
	return out
}

// TestRebalanceBetweenHashAndJudge: the worker hashes a batch of SYNs for a
// budgeted fleet, a Rebalance then swaps a tenant's filter for one of
// another order and hash count, and only then is the batch committed and
// judged — with the pairs hashed for the old filter. A pair is the seed's
// and the tuple policy's, not the geometry's, so the fleet ends exactly where
// per-packet Set.Process through the same Rebalance ends: verdicts (the
// replies behind the SYNs pass), counters, stats and snapshot bytes.
func TestRebalanceBetweenHashAndJudge(t *testing.T) {
	fleet := func() *tenant.Set {
		mk := func(id string, b byte) tenant.Config {
			return tenant.Config{ID: id, Prefix: packet.PrefixFrom(packet.AddrFrom4(10, b, 0, 0), 16), Options: []core.Option{
				core.WithOrder(16), core.WithSeed(uint64(b) + 1), core.WithVectors(4), core.WithRotateEvery(time.Second)}}
		}
		set, err := tenant.NewSet(tenant.SetConfig{
			Tenants: []tenant.Config{mk("hot", 0), mk("idle", 1)},
			Budget:  &tenant.Budget{TotalBytes: 48 * 1024, TargetPenetration: 0.01},
		})
		if err != nil {
			t.Fatal(err)
		}
		return set
	}
	// Before the first rotation, 20k flows into "hot" and none into "idle":
	// the skew the Rebalance at 1.1 s acts on.
	warm := make([]packet.Packet, 20_000)
	for i := range warm {
		warm[i] = packet.Packet{Time: time.Duration(i) * 40 * time.Microsecond, Dir: packet.Outgoing, Length: 100,
			Tuple: packet.Tuple{Src: packet.AddrFrom4(10, 0, byte(i>>8), byte(i)), SrcPort: uint16(1024 + i%60000),
				Dst: packet.AddrFrom4(198, 51, byte(i>>8), byte(i)), DstPort: 443, Proto: packet.TCP}}
	}
	syns, replies := flows(t, 37)
	for _, fs := range [][]capture.Frame{syns, replies} {
		for i := range fs {
			fs[i].Time += 1200 * time.Millisecond
		}
	}
	set, ref := fleet(), fleet()
	log := &verdictLog{Set: set}
	for _, pkt := range warm {
		set.Process(pkt)
		ref.Process(pkt)
	}
	rebalance := func(s *tenant.Set) {
		t.Helper()
		before := s.TenantStats()
		if n, err := s.Rebalance(1100 * time.Millisecond); err != nil || n == 0 {
			t.Fatalf("Rebalance resized %d tenants (%v)", n, err)
		}
		changed := false
		for i, st := range s.TenantStats() {
			changed = changed || (st.Stats.Order != before[i].Stats.Order && st.Stats.Hashes != before[i].Stats.Hashes)
		}
		if !changed {
			t.Fatal("the Rebalance changed no tenant's order and hash count both")
		}
	}

	p := New(Config{Source: &listSource{batches: [][]capture.Frame{syns, replies}}, Filter: log, Batch: 37, Workers: 1})
	w := p.workers[0]
	var judged []packet.Packet
	b := p.take(w)
	p.read(w, b)
	p.decodeBatch(b)
	if len(b.pkts) != 37 || len(b.pairs) != 2*37 {
		t.Fatalf("%d packets, %d pair words hashed", len(b.pkts), len(b.pairs))
	}
	judged = append(judged, b.pkts...)
	rebalance(set)
	p.publish(b)
	p.commit(w)
	b = p.take(w)
	p.read(w, b)
	p.decodeBatch(b)
	judged = append(judged, b.pkts...)
	p.publish(b)
	p.commit(w)

	rebalance(ref)
	want := make([]filtering.Verdict, len(judged))
	for i, pkt := range judged {
		want[i] = ref.Process(pkt)
	}
	if len(log.got) != len(want) || !slices.Equal(log.got, want) {
		t.Fatalf("committed verdicts %v, per-packet %v", log.got, want)
	}
	if s := p.Snapshot(); s.Passed != 37 || s.Dropped != 0 || s.QuarantinedBatches != 0 {
		t.Errorf("%d replies passed, %d dropped, %d batches quarantined; want 37, 0 and 0", s.Passed, s.Dropped, s.QuarantinedBatches)
	}
	if set.Counters() != ref.Counters() || !reflect.DeepEqual(set.Stats(), ref.Stats()) || !reflect.DeepEqual(set.TenantStats(), ref.TenantStats()) {
		t.Errorf("fleet state diverged:\n  pump:       %+v\n  per-packet: %+v", set.TenantStats(), ref.TenantStats())
	}
	var got, exp bytes.Buffer
	if err := set.WriteSnapshot(&got); err != nil {
		t.Fatal(err)
	}
	if err := ref.WriteSnapshot(&exp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), exp.Bytes()) {
		t.Error("snapshot bytes differ from the per-packet fleet's")
	}
}
