package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bitmapfilter/internal/capture"
	"bitmapfilter/internal/core"
	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/pcap"
	"bitmapfilter/internal/resilience"
)

// workerCounts is the explicit W every worker-pump test runs at: the old
// inline loop, two workers handing batches to each other, and more workers
// than this box has cores.
var workerCounts = []int{1, 2, 4}

// singleFilter builds the filter the worker tests run against: rotations
// every 100 ms of trace time and a bandwidth APD policy that spares part of
// the scan, so marks, rotations and APD draws all depend on the filter
// seeing its packets in source order, cut at the source's batch boundaries.
func singleFilter(t *testing.T) *core.Filter {
	t.Helper()
	apd, err := core.NewBandwidthPolicy(20e6, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	f, err := core.New(core.WithOrder(14), core.WithVectors(4), core.WithHashes(3),
		core.WithRotateEvery(100*time.Millisecond), core.WithAPD(apd))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// hostileTrace is trace with a frame the filter must never see after every
// 97th: garbage (a truncated decode error), a fragment (refused by class)
// and transit traffic touching no client subnet (unrouted), in turn.
func hostileTrace(t *testing.T, trace []byte) []byte {
	t.Helper()
	client, server := packet.AddrFrom4(10, 0, 0, 5), packet.AddrFrom4(198, 51, 100, 7)
	frag := encodeFrame(t, packet.Packet{Tuple: packet.Tuple{Src: server, Dst: client, SrcPort: 80, DstPort: 4000, Proto: packet.TCP},
		Dir: packet.Incoming, Length: 60})
	frag[packet.EthernetHeaderLen+6] = 0x20 // MF
	refixIPChecksum(frag)
	transit := encodeFrame(t, packet.Packet{Tuple: packet.Tuple{Src: server, Dst: packet.AddrFrom4(203, 0, 113, 9), SrcPort: 1, DstPort: 2, Proto: packet.TCP},
		Dir: packet.Incoming, Length: 60})
	extra := [][]byte{{1, 2, 3}, frag, transit}

	src, err := capture.NewReplayBytes(trace, 1)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	w, err := pcap.NewWriter(&out)
	if err != nil {
		t.Fatal(err)
	}
	ring := make([]capture.Frame, 64)
	for frames := 0; ; {
		n, err := src.ReadBatch(ring)
		for _, f := range ring[:n] {
			if werr := w.WriteRecord(pcap.Record{Time: f.Time, Data: f.Data}); werr != nil {
				t.Fatal(werr)
			}
			if frames++; frames%97 == 0 {
				if werr := w.WriteRecord(pcap.Record{Time: f.Time, Data: extra[frames/97%len(extra)]}); werr != nil {
					t.Fatal(werr)
				}
			}
		}
		if err != nil {
			return out.Bytes()
		}
	}
}

// intakeOf is the reference front half: what pump.decode makes of every
// frame of a trace, without the pump.
type intakeOf struct {
	pkts []packet.Packet
	// upTo[i] is how many packets the first i frames yield, so the packets
	// of frames [a, b) are pkts[upTo[a]:upTo[b]].
	upTo     []int
	unrouted uint64
	decErr   [decClasses]uint64
}

func referenceIntake(t *testing.T, trace []byte) *intakeOf {
	t.Helper()
	subnets, _ := parseSubnets("10.0.0.0/8")
	table := packet.NewPrefixTable(subnets)
	src, err := capture.NewReplayBytes(trace, 1)
	if err != nil {
		t.Fatal(err)
	}
	in := &intakeOf{upTo: []int{0}}
	ring := make([]capture.Frame, 64)
	for {
		n, err := src.ReadBatch(ring)
		for _, f := range ring[:n] {
			var pkt packet.Packet
			if derr := packet.DecodeInto(&pkt, f.Data); derr != nil {
				in.decErr[decClass(derr)]++
			} else if dir, ok := table.Classify(pkt.Tuple); !ok {
				in.unrouted++
			} else {
				pkt.Time, pkt.Dir = f.Time, dir
				in.pkts = append(in.pkts, pkt)
			}
			in.upTo = append(in.upTo, len(in.pkts))
		}
		if err != nil {
			return in
		}
	}
}

// scriptedSource wraps a source and records the size of every batch it
// delivers — the cut the filter must see. It can deliver ragged short
// batches, yield or sleep at random inside ReadBatch so the workers fall
// out of step and batches are published out of source order, and lie about
// one batch's length (a source bug the decode boundary has to contain).
// The pump reads it under its source lock, so it needs none of its own.
type scriptedSource struct {
	capture.Source
	rng    *rand.Rand
	ragged bool
	jitter bool
	lieAt  int // the batch (from 1) reported one frame longer than the ring
	sizes  []int
	reads  atomic.Int64
}

func (s *scriptedSource) ReadBatch(frames []capture.Frame) (int, error) {
	want := len(frames)
	if s.ragged {
		want = 1 + s.rng.Intn(len(frames))
	}
	if s.jitter {
		switch s.rng.Intn(4) {
		case 0:
			runtime.Gosched()
		case 1:
			time.Sleep(time.Duration(s.rng.Intn(200)) * time.Microsecond)
		}
	}
	n, err := s.Source.ReadBatch(frames[:want])
	if n > 0 {
		s.sizes = append(s.sizes, n)
		if int(s.reads.Add(1)) == s.lieAt {
			return len(frames) + 1, err
		}
	}
	return n, err
}

// judgedBatch is one ProcessBatchInto call as recordingFilter saw it.
type judgedBatch struct {
	n     int
	first time.Duration // the first packet's timestamp; -1 for an empty batch
}

func batchOf(pkts []packet.Packet) judgedBatch {
	if len(pkts) == 0 {
		return judgedBatch{0, -1}
	}
	return judgedBatch{len(pkts), pkts[0].Time}
}

// recordingFilter records the batches the pump judges, in commit order.
// Every call is made under the judge lock, and the workers that made them
// are joined before run returns.
type recordingFilter struct {
	filtering.BatchFilter
	calls []judgedBatch
}

func (r *recordingFilter) ProcessBatchInto(pkts []packet.Packet, out []filtering.Verdict) []filtering.Verdict {
	r.calls = append(r.calls, batchOf(pkts))
	return r.BatchFilter.ProcessBatchInto(pkts, out)
}

func workerPump(src capture.Source, bf filtering.BatchFilter, batch, workers int) (*pump, *wallStats) {
	subnets, _ := parseSubnets("10.0.0.0/8")
	stats := newWallStats(time.Now())
	return newPump(src, bf, subnets, batch, workers, stats), stats
}

// TestWorkerPumpMatchesInlineReference is the worker pump's differential:
// the pump at W = 1, 2, 4 against a reference that decodes the same frames
// and calls ProcessBatchInto once per source batch on one goroutine — the
// inline loop the workers replaced. Every tally must be equal, the batches
// must reach the filter in source order with no gap or repeat, and the two
// filters must end byte for byte in the same state.
func TestWorkerPumpMatchesInlineReference(t *testing.T) {
	traces := map[string][]byte{
		"scan":    hostileTrace(t, testTrace(t, 40_000, 25, 500*time.Millisecond)),
		"two_way": hostileTrace(t, testTrace(t, 500, 4000, 500*time.Millisecond)),
	}
	sources := map[string]func(*scriptedSource){
		"batch37": func(*scriptedSource) {}, // divides nothing
		"ragged":  func(s *scriptedSource) { s.ragged = true },
		"jitter":  func(s *scriptedSource) { s.ragged, s.jitter = true, true },
	}
	for traceName, trace := range traces {
		in := referenceIntake(t, trace)
		if in.unrouted == 0 || in.decErr[decTruncated] == 0 || in.decErr[decFragmented] == 0 {
			t.Fatalf("%s: the hostile frames did not land: %d unrouted, decode errors %v", traceName, in.unrouted, in.decErr)
		}
		for srcName, shape := range sources {
			for _, workers := range workerCounts {
				t.Run(fmt.Sprintf("%s/%s/W=%d", traceName, srcName, workers), func(t *testing.T) {
					replay, err := capture.NewReplayBytes(trace, 1)
					if err != nil {
						t.Fatal(err)
					}
					src := &scriptedSource{Source: replay, rng: rand.New(rand.NewSource(int64(workers)))}
					shape(src)
					bf := &recordingFilter{BatchFilter: singleFilter(t)}
					p, stats := workerPump(src, bf, 37, workers)
					if err := p.run(); err != nil {
						t.Fatal(err)
					}

					// The reference: the same cut, one goroutine.
					ref := singleFilter(t)
					var want totalsOf
					var wantCalls []judgedBatch
					var verdicts []filtering.Verdict
					frame := 0
					for _, n := range src.sizes {
						chunk := in.pkts[in.upTo[frame]:in.upTo[frame+n]]
						frame += n
						wantCalls = append(wantCalls, batchOf(chunk))
						verdicts = ref.ProcessBatchInto(chunk, verdicts)
						want.add(chunk, verdicts)
					}
					if frame != len(in.upTo)-1 {
						t.Fatalf("the source delivered %d frames of %d", frame, len(in.upTo)-1)
					}
					if want.pass == 0 || want.drop == 0 || ref.Stats().Rotations == 0 || ref.APDSpared() == 0 {
						t.Fatalf("trace exercises too little: %+v, %d rotations, %d spared", want, ref.Stats().Rotations, ref.APDSpared())
					}

					got := totalsOf{stats.outgoing.Load(), stats.incoming.Load(), stats.passed.Load(), stats.dropped.Load()}
					if frames := stats.frames.Load(); frames != uint64(frame) || got != want {
						t.Errorf("pump: %d frames %+v, reference: %d frames %+v", frames, got, frame, want)
					}
					if got := stats.unrouted.Load(); got != in.unrouted {
						t.Errorf("unrouted = %d, reference %d", got, in.unrouted)
					}
					for class := range in.decErr {
						if got := stats.decodeErr[class].Load(); got != in.decErr[class] {
							t.Errorf("decode errors (%s) = %d, reference %d", decClassNames[class], got, in.decErr[class])
						}
					}
					if !reflect.DeepEqual(bf.calls, wantCalls) {
						t.Errorf("the filter saw %d batches, the source delivered %d; first difference at %d",
							len(bf.calls), len(wantCalls), firstDifference(bf.calls, wantCalls))
					}
					inner := bf.BatchFilter.(*core.Filter)
					if got, want := inner.Stats(), ref.Stats(); !reflect.DeepEqual(got, want) {
						t.Errorf("filter state\n  pump:      %+v\n  reference: %+v", got, want)
					}
					var gotSnap, wantSnap bytes.Buffer
					if err := inner.WriteSnapshot(&gotSnap); err != nil {
						t.Fatal(err)
					}
					if err := ref.WriteSnapshot(&wantSnap); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(gotSnap.Bytes(), wantSnap.Bytes()) {
						t.Error("the pump's filter and the reference's snapshot to different bytes")
					}
					if workers == 1 && p.foreignCommits.Load() != 0 {
						t.Errorf("one worker made %d foreign commits", p.foreignCommits.Load())
					}
				})
			}
		}
	}
}

func firstDifference(a, b []judgedBatch) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// TestWorkerPublishOutOfOrder steps two workers by hand through the one
// interleaving a scheduler cannot be made to produce on demand: the later
// batch is published first. Its worker must find nothing to judge and not
// wait; the worker that publishes the head judges both, in source order,
// and each buffer goes back to the worker that owns it.
func TestWorkerPublishOutOfOrder(t *testing.T) {
	replay, err := capture.NewReplayBytes(testTrace(t, 40_000, 25, 50*time.Millisecond), 1)
	if err != nil {
		t.Fatal(err)
	}
	bf := &recordingFilter{BatchFilter: singleFilter(t)}
	p, stats := workerPump(replay, bf, 37, 2)
	first, second := p.workers[0], p.workers[1]
	head, next := p.take(first), p.take(second)
	if !p.read(first, head) || !p.read(second, next) || head.seq != 0 || next.seq != 1 {
		t.Fatalf("reads numbered %d and %d, want 0 and 1", head.seq, next.seq)
	}
	p.decodeBatch(head)
	p.decodeBatch(next)

	p.publish(next)
	p.commit(second)
	if len(bf.calls) != 0 || p.head.Load() != 0 || len(second.free) != workerBuffers-1 {
		t.Fatalf("batch 1 published alone: %d batches judged, head %d, %d buffers free", len(bf.calls), p.head.Load(), len(second.free))
	}
	p.publish(head)
	p.commit(first)
	want := []judgedBatch{batchOf(head.pkts), batchOf(next.pkts)}
	if !reflect.DeepEqual(bf.calls, want) || p.head.Load() != 2 {
		t.Errorf("judged %+v, want %+v; head %d", bf.calls, want, p.head.Load())
	}
	if got := p.foreignCommits.Load(); got != 1 {
		t.Errorf("foreign commits = %d, want 1 (batch 1, judged by the worker that decoded batch 0)", got)
	}
	if len(first.free) != workerBuffers || len(second.free) != workerBuffers {
		t.Errorf("free buffers %d and %d, want all %d back with their owners", len(first.free), len(second.free), workerBuffers)
	}
	if judged := stats.outgoing.Load() + stats.incoming.Load(); judged != uint64(len(head.pkts)+len(next.pkts)) {
		t.Errorf("%d packets tallied of %d", judged, len(head.pkts)+len(next.pkts))
	}
}

// TestWorkerPanicQuarantinesBatch: a fault in batch j — in its decode (the
// source reports more frames than the ring holds) or in its
// ProcessBatchInto — quarantines exactly that batch. The sequence keeps
// advancing, every later batch is judged in order, and run returns: no
// worker waits forever for a head that will never be published.
func TestWorkerPanicQuarantinesBatch(t *testing.T) {
	trace := testTrace(t, 40_000, 200, 500*time.Millisecond)
	in := referenceIntake(t, trace)
	const faultAt = 7 // late enough that every worker has buffers in flight
	for _, where := range []string{"decode", "filter"} {
		for _, workers := range workerCounts {
			t.Run(fmt.Sprintf("%s/W=%d", where, workers), func(t *testing.T) {
				replay, err := capture.NewReplayBytes(trace, 1)
				if err != nil {
					t.Fatal(err)
				}
				src := &scriptedSource{Source: replay}
				inner := &recordingFilter{BatchFilter: singleFilter(t)}
				var bf filtering.BatchFilter = inner
				if where == "decode" {
					src.lieAt = faultAt
				} else {
					// Outside the recorder: the faulty batch never reaches it.
					bf = &panicFilter{BatchFilter: inner, panicOn: faultAt}
				}
				p, stats := workerPump(src, bf, 64, workers)
				var logged atomic.Int64
				p.logf = func(string, ...any) { logged.Add(1) }
				if err := p.run(); err != nil {
					t.Fatalf("pump died on a contained panic: %v", err)
				}

				lost := src.sizes[faultAt-1]
				counted := uint64(lost)
				if where == "decode" {
					counted++ // the frame the source made up
				}
				if got := stats.quarantinedBatches.Load(); got != 1 || logged.Load() != 1 {
					t.Errorf("quarantined batches = %d, logged %d times, want 1 and 1", got, logged.Load())
				}
				if got := stats.quarantinedFrames.Load(); got != counted {
					t.Errorf("quarantined frames = %d, want %d", got, counted)
				}
				total := uint64(len(in.pkts))
				if got := stats.frames.Load(); got != total-uint64(lost)+counted {
					t.Errorf("frames = %d, want %d", got, total-uint64(lost)+counted)
				}
				if judged := stats.outgoing.Load() + stats.incoming.Load(); judged != total-uint64(lost) {
					t.Errorf("%d packets judged, want all %d but the quarantined %d", judged, total, lost)
				}
				var want []judgedBatch
				frame := 0
				for i, n := range src.sizes {
					if i != faultAt-1 {
						want = append(want, batchOf(in.pkts[frame:frame+n]))
					}
					frame += n
				}
				if !reflect.DeepEqual(inner.calls, want) {
					t.Errorf("the filter saw %d batches, want the %d around the fault in order; first difference at %d",
						len(inner.calls), len(want), firstDifference(inner.calls, want))
				}
			})
		}
	}
}

// TestWorkerBackPressure: a filter that blocks bounds the batches in flight
// at W × workerBuffers — every worker ends up parked on its own free list,
// nobody reads — and the overload queue in front of the pump sheds per
// policy, as it did when the pump was one loop.
func TestWorkerBackPressure(t *testing.T) {
	trace := testTrace(t, 40_000, 200, 500*time.Millisecond)
	// Three passes: more than the queue and every buffer of four workers hold.
	const loops, queue = 3, 16384
	total := loops * uint64(len(referenceIntake(t, trace).pkts))
	for _, workers := range workerCounts {
		t.Run(fmt.Sprintf("W=%d", workers), func(t *testing.T) {
			replay, err := capture.NewReplayBytes(trace, loops)
			if err != nil {
				t.Fatal(err)
			}
			buf := resilience.NewBuffer(replay, resilience.BufferConfig{Capacity: queue, SnapLen: 256, Policy: resilience.PolicyDrop})
			defer buf.Close()
			src := &scriptedSource{Source: buf}
			wedge := &wedgeFilter{BatchFilter: singleFilter(t), entered: make(chan struct{}), release: make(chan struct{})}
			p, stats := workerPump(src, wedge, 64, workers)
			done := make(chan error, 1)
			go func() { done <- p.run() }()

			<-wedge.entered
			// The worker inside the filter holds the judge; the others read
			// until their buffers are all published behind it, then park.
			for deadline := time.Now().Add(10 * time.Second); p.bufferWaits.Load() < uint64(workers-1) || buf.Stats().Shed == 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d of %d workers ran out of buffers, %d frames shed", p.bufferWaits.Load(), workers-1, buf.Stats().Shed)
				}
			}
			reads := src.reads.Load()
			time.Sleep(20 * time.Millisecond)
			if again := src.reads.Load(); again != reads || reads > int64(workers*workerBuffers) {
				t.Errorf("%d then %d batches read with the judge blocked, want them to stop at no more than %d", reads, again, workers*workerBuffers)
			}
			close(wedge.release)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			st := buf.Stats()
			if st.Accepted+st.Shed != total || stats.frames.Load() != st.Accepted {
				t.Errorf("%d frames in the trace: %d accepted + %d shed, %d reached the pump", total, st.Accepted, st.Shed, stats.frames.Load())
			}
			if judged := stats.outgoing.Load() + stats.incoming.Load(); judged != st.Accepted {
				t.Errorf("%d packets judged of %d accepted", judged, st.Accepted)
			}
		})
	}
}

// TestWorkerDrainBeforeSnapshot: a source closed mid-replay ends run only
// after every batch read was judged — every frame is accounted for, and a
// snapshot taken when run returns restores to exactly that state.
func TestWorkerDrainBeforeSnapshot(t *testing.T) {
	trace := testTrace(t, 40_000, 200, 500*time.Millisecond)
	for _, workers := range workerCounts {
		t.Run(fmt.Sprintf("W=%d", workers), func(t *testing.T) {
			replay, err := capture.NewReplayBytes(trace, 1000)
			if err != nil {
				t.Fatal(err)
			}
			bf := singleFilter(t)
			p, stats := workerPump(&closeAfter{Source: replay, reads: 100}, bf, 512, workers)
			if err := p.run(); err != nil {
				t.Fatal(err)
			}
			frames := stats.frames.Load()
			if frames != 99*512 {
				t.Fatalf("%d frames read before the close, want 99 full batches", frames)
			}
			if sum := stats.outgoing.Load() + stats.incoming.Load(); sum != frames {
				t.Errorf("%d frames read, %d judged", frames, sum)
			}
			if c := bf.Counters(); c.OutPackets != stats.outgoing.Load() || c.InPackets != stats.incoming.Load() || c.InPassed != stats.passed.Load() {
				t.Errorf("filter counters %+v, pump counted %d out / %d in / %d passed", c, stats.outgoing.Load(), stats.incoming.Load(), stats.passed.Load())
			}
			var snap bytes.Buffer
			if err := bf.WriteSnapshot(&snap); err != nil {
				t.Fatal(err)
			}
			apd, _ := core.NewBandwidthPolicy(20e6, 200*time.Millisecond)
			restored, err := core.ReadAnySnapshot(&snap, core.WithAPD(apd))
			if err != nil {
				t.Fatal(err)
			}
			got, want := restored.Stats(), bf.Stats()
			// The APD window and its spared count are not part of a snapshot;
			// everything else is.
			got.APDDropProbability, want.APDDropProbability = 0, 0
			got.APDSpared, want.APDSpared = 0, 0
			if !reflect.DeepEqual(got, want) {
				t.Errorf("restored %+v\n  pump's  %+v", got, want)
			}
		})
	}
}

// TestWorkerDrainOnSignal is the daemon-level drain over a single filter:
// SIGTERM in the middle of a replay, W = min(GOMAXPROCS, maxWorkers) — run
// it with -cpu 1,2,4. The final checkpoint is taken after the workers are
// joined and the reorder ring is empty, so the counters it restores to are
// the ones the exit line reports. -queue 0: the workers read the supervised
// replay itself, the path -bench times (TestWorkerBackPressure has the queue).
func TestWorkerDrainOnSignal(t *testing.T) {
	drainOnSignal(t, filterCounters, "-queue", "0")
}

// slowFilter takes its time over every batch, so the decoders stay ahead of
// the judge: the head of the sequence is always published and whoever holds
// the judge lock never lets go of it.
type slowFilter struct {
	filtering.BatchFilter
	perBatch time.Duration
}

func (s *slowFilter) ProcessBatchInto(pkts []packet.Packet, out []filtering.Verdict) []filtering.Verdict {
	time.Sleep(s.perBatch)
	return s.BatchFilter.ProcessBatchInto(pkts, out)
}

// TestStatsWhilePumping: /stats and /metrics show the filter while the pump
// judges through it. bfwall -listen without -checkpoint builds a plain,
// unlocked Filter — under -race the parent's read of its Counters from the
// handler fails on the first scrape — and the judge lock is no place to wait
// either: with the filter as the bottleneck (judge-bound) it is never free.
// A scrape reads the copy the judge leaves after every batch, whole, and
// answers while the judge is busy.
func TestStatsWhilePumping(t *testing.T) {
	trace := testTrace(t, 40_000, 200, 200*time.Millisecond)
	for _, tc := range []struct {
		name     string
		workers  int
		perBatch time.Duration
	}{{"W=1", 1, 0}, {"W=2", 2, 0}, {"W=2/judge-bound", 2, time.Millisecond}} {
		t.Run(tc.name, func(t *testing.T) {
			replay, err := capture.NewReplayBytes(trace, 1_000_000)
			if err != nil {
				t.Fatal(err)
			}
			inner := singleFilter(t)
			var bf filtering.BatchFilter = inner
			if tc.perBatch > 0 {
				bf = &slowFilter{BatchFilter: inner, perBatch: tc.perBatch}
			}
			p, stats := workerPump(replay, bf, 64, tc.workers)
			srv := httptest.NewServer(newMux(stats, bf, &resiliencePlane{stats: stats}))
			defer srv.Close()
			defer replay.Close() // first: a scrape stuck behind the judge ends with the replay
			client := srv.Client()
			// Thousands of batch times: a scrape that waits for the judge to
			// run out of work waits for the end of the replay.
			client.Timeout = 5 * time.Second
			done := make(chan error, 1)
			go func() { done <- p.run() }()

			var last statsSnapshot
			for scrape := 0; scrape < 50 || last.Filter.Counters.InPackets == 0; scrape++ {
				for _, path := range []string{"/stats", "/metrics"} {
					resp, err := client.Get(srv.URL + path)
					if err != nil {
						t.Fatal(err)
					}
					body, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil || resp.StatusCode != 200 {
						t.Fatalf("GET %s: %d %v", path, resp.StatusCode, err)
					}
					if path == "/stats" {
						was := last.Filter.Counters
						if err := json.Unmarshal(body, &last); err != nil {
							t.Fatalf("/stats JSON: %v", err)
						}
						if c := last.Filter.Counters; c.InPackets != c.InPassed+c.InDropped || c.InPackets < was.InPackets {
							t.Fatalf("/stats read the filter mid-batch: %+v after %+v", c, was)
						}
					}
				}
			}
			if last.Filter.Name != inner.Name() || last.Filter.MemoryBytes != inner.MemoryBytes() {
				t.Errorf("/stats filter = %q, %d bytes", last.Filter.Name, last.Filter.MemoryBytes)
			}
			replay.Close()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if tc.perBatch > 0 && p.bufferWaits.Load() == 0 {
				t.Error("the slow filter never had the workers wait for a buffer: not judge-bound")
			}
			if judged := stats.outgoing.Load() + stats.incoming.Load(); judged != stats.frames.Load() {
				t.Errorf("%d frames read, %d judged when run returned", stats.frames.Load(), judged)
			}
			c := inner.Counters()
			if c.OutPackets+c.InPackets != stats.frames.Load() {
				t.Errorf("filter judged %d packets of %d frames", c.OutPackets+c.InPackets, stats.frames.Load())
			}
			if shown := stats.snapshot(bf, time.Now()).Filter.Counters; shown != c {
				t.Errorf("/stats shows %+v after the last batch, the filter holds %+v", shown, c)
			}
		})
	}
}

// TestWorkerObservability: a worker stuck at the head of the sequence flips
// /healthz by its own name while the workers parked behind it stay idle,
// and the pump's series appear on /stats and /metrics.
func TestWorkerObservability(t *testing.T) {
	trace := testTrace(t, 40_000, 200, 300*time.Millisecond)
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("W=%d", workers), func(t *testing.T) {
			replay, err := capture.NewReplayBytes(trace, 1)
			if err != nil {
				t.Fatal(err)
			}
			wedge := &wedgeFilter{BatchFilter: singleFilter(t), entered: make(chan struct{}), release: make(chan struct{})}
			p, stats := workerPump(replay, wedge, 64, workers)
			var clock atomic.Int64
			wd := resilience.NewWatchdog(func() time.Duration { return time.Duration(clock.Load()) })
			health := resilience.NewHealth(wd)
			for i, w := range p.workers {
				w.probe = wd.Heartbeat(fmt.Sprintf("worker%d", i), 100*time.Millisecond)
			}
			srv := httptest.NewServer(newMux(stats, wedge, &resiliencePlane{health: health, stats: stats}))
			defer srv.Close()
			release := sync.OnceFunc(func() { close(wedge.release) })
			defer release() // first: a scrape stuck behind the wedge ends with it
			client := srv.Client()
			client.Timeout = 5 * time.Second
			get := func(path string) (int, string) {
				t.Helper()
				resp, err := client.Get(srv.URL + path)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				body, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Fatal(err)
				}
				return resp.StatusCode, string(body)
			}

			done := make(chan error, 1)
			go func() { done <- p.run() }()
			<-wedge.entered // one worker is inside the filter and stays there
			for deadline := time.Now().Add(10 * time.Second); p.bufferWaits.Load() < uint64(workers-1); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the other workers never ran out of buffers behind the wedged judge")
				}
			}
			clock.Store(int64(time.Second))
			// The judge lock is held and stays held: no endpoint waits for it.
			for _, path := range []string{"/stats", "/metrics"} {
				if code, _ := get(path); code != 200 {
					t.Errorf("GET %s behind a wedged judge = %d", path, code)
				}
			}
			if code, body := get("/healthz"); code != 503 || strings.Count(body, " stalled for ") != 1 || !strings.Contains(body, "worker") {
				t.Errorf("/healthz with one of %d workers wedged = %d %q, want that worker alone", workers, code, body)
			}
			release()
			if err := <-done; err != nil {
				t.Fatal(err)
			}

			_, body := get("/stats")
			var snap statsSnapshot
			if err := json.Unmarshal([]byte(body), &snap); err != nil {
				t.Fatalf("/stats JSON: %v", err)
			}
			if snap.Pump == nil || snap.Pump.Workers != workers || snap.Lanes != nil {
				t.Fatalf("/stats pump = %+v, lanes = %v", snap.Pump, snap.Lanes)
			}
			if workers > 1 && (snap.Pump.BufferWaits == 0 || snap.Pump.ForeignCommits == 0) {
				t.Errorf("/stats pump = %+v, want buffer waits and foreign commits behind a wedged judge", snap.Pump)
			}
			_, metrics := get("/metrics")
			for _, want := range []string{
				fmt.Sprintf("bitmapfilter_pump_workers %d", workers),
				fmt.Sprintf("bitmapfilter_pump_foreign_commits_total %d", snap.Pump.ForeignCommits),
				fmt.Sprintf("bitmapfilter_pump_buffer_waits_total %d", snap.Pump.BufferWaits),
				`bitmapfilter_resilience_probe_stalled{probe="worker0"} 0`,
			} {
				if !strings.Contains(metrics, want) {
					t.Errorf("/metrics missing %q", want)
				}
			}
			if strings.Contains(metrics, "bitmapfilter_lane_") {
				t.Error("/metrics has lane series for a worker pump")
			}
			// Per-packet latency runs from a batch's read to its last verdict:
			// the wedge, and the wait behind it, are inside.
			if snap.LatencyP99Ns <= 0 || snap.Frames != snap.Outgoing+snap.Incoming {
				t.Errorf("/stats: p99 %d ns, %d frames, %d out, %d in", snap.LatencyP99Ns, snap.Frames, snap.Outgoing, snap.Incoming)
			}
		})
	}
}
