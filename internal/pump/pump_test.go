package pump

import (
	"io"
	"sync"
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

// raceEnabled is set by race_test.go under -race, where sync.Pool sheds a
// quarter of what it is given and the Set's pooled scratch is allocated
// anew: the steps still run there, for the detector, without the count.
var raceEnabled bool

// sinks builds one filter per sink of the commit step — a single filter three
// ways: plain and locked (hashed by the workers), and wrapped (by itself).
var sinks = map[string]func(t *testing.T) filtering.BatchFilter{
	"single":  func(t *testing.T) filtering.BatchFilter { return single(t) },
	"locked":  func(t *testing.T) filtering.BatchFilter { return core.NewSafe(single(t)) },
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
			for i, l := range p.lanes {
				if len(l.queue) != 0 || (l.pending != nil && len(l.pending.pkts) != 0) {
					t.Fatalf("batch 1 published alone reached lane %d", i)
				}
			}
			p.publish(head)
			p.commit(first)
			if got := p.foreignCommits.Load(); p.head.Load() != 2 || got != 1 {
				t.Errorf("head %d, %d foreign commits; want 2 and 1 (batch 1, committed by the worker that decoded batch 0)", p.head.Load(), got)
			}
			// The source is at its end: Run only starts the lanes and drains.
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
// indexes, so nothing stale can reach the filter; exactly that batch is
// quarantined, and the buffer's next batch is hashed and judged as ever.
func TestDecodePanicDropsHashedIndexes(t *testing.T) {
	for _, name := range []string{"single", "locked", "wrapped"} {
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
			want := 37 * 3
			if name == "wrapped" {
				want = 0 // the filter hashes for itself
			}
			if (p.hashed != nil) != (want > 0) || len(b.idxs) != want {
				t.Fatalf("%d indexes ride with 37 packets, want %d (the pump hashes: %v)", len(b.idxs), want, p.hashed != nil)
			}
			for next := <-w.free; next != b; next = <-w.free { // the same buffer again, its indexes still in it
				w.free <- next
			}
			p.read(w, b)
			if len(b.idxs) != want {
				t.Fatalf("the buffer came back with %d indexes, want the %d of its last batch", len(b.idxs), want)
			}
			b.n = len(b.ring) + 1 // what a lying source reports
			p.decodeBatch(b)
			if !b.poisoned || len(b.pkts) != 0 || len(b.idxs) != 0 {
				t.Fatalf("after a contained decode panic: poisoned %v, %d packets, %d indexes", b.poisoned, len(b.pkts), len(b.idxs))
			}
			p.publish(b)
			p.commit(w)
			step(p.take(w))
			s := p.Snapshot()
			if s.QuarantinedBatches != 1 || s.QuarantinedFrames != 38 || p.head.Load() != 3 {
				t.Errorf("quarantined %d batches, %d frames, head %d; want 1, 38 and 3", s.QuarantinedBatches, s.QuarantinedFrames, p.head.Load())
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
			if s.DecodeBusy <= 0 || (s.HashBusy > 0) != (p.hashed != nil) {
				t.Errorf("decode busy %v, hash busy %v; want both stamped when the workers hash (%v), decode alone otherwise", s.DecodeBusy, s.HashBusy, p.hashed != nil)
			}
		})
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
// by hand, the lanes running free.
func TestStepZeroAllocs(t *testing.T) {
	for name, build := range sinks {
		t.Run(name, func(t *testing.T) {
			syns, _ := flows(t, 16)
			p := New(Config{Source: &listSource{batches: [][]capture.Frame{syns}, forever: true}, Filter: build(t), Subnets: subnets, Batch: 16, Workers: 1})
			var lanes sync.WaitGroup
			lanes.Add(len(p.lanes))
			for _, l := range p.lanes {
				go func() {
					defer lanes.Done()
					p.runLane(l)
				}()
			}
			w := p.workers[0]
			step := func() {
				b := p.take(w)
				p.read(w, b)
				p.decodeBatch(b)
				p.publish(b)
				p.commit(w)
			}
			for i := 0; i < 4*workerBuffers; i++ { // warm: every buffer, the verdict slices, the Set's scratch
				step()
			}
			allocs := testing.AllocsPerRun(200, step)
			for _, l := range p.lanes {
				close(l.queue)
			}
			lanes.Wait()
			if allocs != 0 && !(raceEnabled && name == "fleet") {
				t.Errorf("the pump allocates %.2f times per source batch", allocs)
			}
			// A shard lane's pending sub-batch was flushed by every short read.
			s := p.Snapshot()
			if s.Outgoing != 16*p.head.Load() || p.head.Load() < 200 {
				t.Errorf("judged %d packets of %d batches", s.Outgoing, p.head.Load())
			}
			// The stage clocks: decode always, the hand-off and every lane's
			// judging where there are lanes.
			var laneBusy time.Duration
			for _, l := range s.Lanes {
				laneBusy += l.Busy
			}
			if laned := p.lanes != nil; s.DecodeBusy <= 0 || (s.ScatterBusy > 0) != laned || (laneBusy > 0) != laned {
				t.Errorf("decode %v, scatter %v, lanes %v busy (lanes: %v)", s.DecodeBusy, s.ScatterBusy, laneBusy, laned)
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

// halfJudgeFleet is halfJudge for the fleet's lane.
type halfJudgeFleet struct {
	*tenant.Set
	calls int
}

func (h *halfJudgeFleet) ProcessRoutedInto(pkts []packet.Packet, slots []int32, out []filtering.Verdict) []filtering.Verdict {
	if h.calls++; h.calls == 2 {
		h.Set.ProcessRoutedInto(pkts[:len(pkts)/2], slots[:len(pkts)/2], out)
		panic("injected fault half way through a batch")
	}
	return h.Set.ProcessRoutedInto(pkts, slots, out)
}

// TestPanicMidBatchCountsNothing: the direction and verdict tallies are the
// filter's own counters differenced per batch, and a judge that panics after
// the filter counted part of its batch adds none of it — the batch is
// quarantined, so every frame is judged or quarantined exactly once — while
// the shown counters are the filter's, half batch and all, and the next batch
// is differenced from them.
func TestPanicMidBatchCountsNothing(t *testing.T) {
	for name, build := range map[string]func(t *testing.T) filtering.BatchFilter{
		"single": func(t *testing.T) filtering.BatchFilter { return &halfJudge{BatchFilter: single(t)} },
		"fleet":  func(t *testing.T) filtering.BatchFilter { return &halfJudgeFleet{Set: sinks["fleet"](t).(*tenant.Set)} },
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
		})
	}
}
