package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bitmapfilter/internal/capture"
	"bitmapfilter/internal/core"
	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/resilience"
)

// testTrace synthesizes a pcap in memory: legitimate two-way sessions at
// connRate under a random scan at scanPPS, over span of virtual time, with
// clients in 10.0.0.0/8.
func testTrace(t *testing.T, scanPPS, connRate float64, span time.Duration) []byte {
	return testTraceOver(t, "10.0.0.0/8", scanPPS, connRate, span)
}

func testTraceOver(t *testing.T, clients string, scanPPS, connRate float64, span time.Duration) []byte {
	t.Helper()
	subnets, err := parseSubnets(clients)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, _, err := writeScanTrace(&buf, genConfig{
		scanPPS: scanPPS, connRate: connRate, duration: span, seed: 3, subnets: subnets,
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeTrace is the reference front half: every frame of trace decoded
// and classified against 10.0.0.0/8 without the pump.
func decodeTrace(t *testing.T, trace []byte) []packet.Packet {
	t.Helper()
	subnets, _ := parseSubnets("10.0.0.0/8")
	pkts, unrouted := decodeTraceOver(t, trace, subnets)
	if unrouted != 0 {
		t.Fatal("unrouted frame in a synthesized trace")
	}
	return pkts
}

// decodeTraceOver classifies against clients, through a table of its own,
// and counts the frames that touch none of them instead of returning them.
func decodeTraceOver(t *testing.T, trace []byte, clients []packet.Prefix) (pkts []packet.Packet, unrouted uint64) {
	t.Helper()
	table := packet.NewPrefixTable(clients)
	src, err := capture.NewReplayBytes(trace, 1)
	if err != nil {
		t.Fatal(err)
	}
	ring := capture.NewRing(64, 0)
	for {
		n, err := src.ReadBatch(ring)
		for _, f := range ring[:n] {
			var pkt packet.Packet
			if derr := packet.DecodeInto(&pkt, f.Data); derr != nil {
				t.Fatalf("undecodable frame in a synthesized trace: %v", derr)
			}
			pkt.Time = f.Time
			dir, ok := table.Classify(pkt.Tuple)
			if !ok {
				unrouted++
				continue
			}
			pkt.Dir = dir
			pkts = append(pkts, pkt)
		}
		if err != nil {
			return pkts, unrouted
		}
	}
}

// shardedFilter builds the sharded flavor the lane tests run against:
// rotations every 100 ms of trace time and a bandwidth APD policy that
// spares part of the scan, so marks, rotations and APD draws all depend
// on each shard seeing its packets in order.
func shardedFilter(t *testing.T, shards int) *core.Sharded {
	t.Helper()
	apd, err := core.NewBandwidthPolicy(20e6, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	f, err := core.Build(core.WithShards(shards), core.WithOrder(14), core.WithVectors(4),
		core.WithHashes(3), core.WithRotateEvery(100*time.Millisecond), core.WithAPD(apd))
	if err != nil {
		t.Fatal(err)
	}
	return f.(*core.Sharded)
}

// lanedPump replays trace through a laned pump over bf.
func lanedPump(t *testing.T, trace []byte, loops int, bf *core.Sharded, batch int) (*pump, *wallStats) {
	t.Helper()
	src, err := capture.NewReplayBytes(trace, loops)
	if err != nil {
		t.Fatal(err)
	}
	subnets, _ := parseSubnets("10.0.0.0/8")
	stats := newWallStats(time.Now())
	p := newPump(src, bf, subnets, batch, 0, stats)
	if len(p.lanes) != bf.Shards() {
		t.Fatalf("pump over %d shards built %d lanes", bf.Shards(), len(p.lanes))
	}
	return p, stats
}

// TestLanesMatchShardedReference is the lane runtime's differential: a
// scan-flood-shaped and a two-way client-mix trace through the laned pump
// against Sharded.ProcessBatchInto over the same decoded packets. Totals
// and every shard's Stats must be equal — lane i saw what shard i sees.
func TestLanesMatchShardedReference(t *testing.T) {
	traces := map[string][]byte{
		"scan_flood": testTrace(t, 40_000, 25, 500*time.Millisecond),
		"client_mix": testTrace(t, 500, 4000, 500*time.Millisecond),
	}
	for name, trace := range traces {
		pkts := decodeTrace(t, trace)
		for _, shards := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				ref := shardedFilter(t, shards)
				var want totalsOf
				var verdicts []filtering.Verdict
				for at := 0; at < len(pkts); at += 512 {
					chunk := pkts[at:min(at+512, len(pkts))]
					verdicts = ref.ProcessBatchInto(chunk, verdicts)
					want.add(chunk, verdicts)
				}
				if want.pass == 0 || want.drop == 0 || ref.Stats().Rotations == 0 || ref.APDSpared() == 0 {
					t.Fatalf("trace exercises too little: %+v, %d rotations, %d spared", want, ref.Stats().Rotations, ref.APDSpared())
				}

				bf := shardedFilter(t, shards)
				// A batch size that divides nothing: sub-batches fill and
				// flush at odd places.
				p, stats := lanedPump(t, trace, 1, bf, 37)
				if err := p.run(); err != nil {
					t.Fatal(err)
				}
				got := totalsOf{stats.outgoing.Load(), stats.incoming.Load(), stats.passed.Load(), stats.dropped.Load()}
				if frames := stats.frames.Load(); frames != uint64(len(pkts)) || got != want {
					t.Errorf("laned pump: %d frames %+v, reference: %d frames %+v", frames, got, len(pkts), want)
				}
				if got, want := bf.ShardStats(), ref.ShardStats(); !reflect.DeepEqual(got, want) {
					for i := range got {
						t.Errorf("shard %d\n  lanes:     %+v\n  reference: %+v", i, got[i], want[i])
					}
				}
				var judged uint64
				for _, l := range p.lanes {
					judged += l.frames.Load()
				}
				if judged != uint64(len(pkts)) {
					t.Errorf("lanes judged %d packets of %d", judged, len(pkts))
				}
			})
		}
	}
}

type totalsOf struct{ out, in, pass, drop uint64 }

func (c *totalsOf) add(pkts []packet.Packet, verdicts []filtering.Verdict) {
	for i := range pkts {
		switch {
		case pkts[i].Dir == packet.Outgoing:
			c.out++
		case verdicts[i] == filtering.Pass:
			c.in++
			c.pass++
		default:
			c.in++
			c.drop++
		}
	}
}

// closeAfter closes the source it wraps from inside its nth read, the
// way SIGTERM's src.Close() lands between two batches of a replay.
type closeAfter struct {
	capture.Source
	reads int
}

func (c *closeAfter) ReadBatch(frames []capture.Frame) (int, error) {
	if c.reads--; c.reads == 0 {
		c.Source.Close()
	}
	return c.Source.ReadBatch(frames)
}

// TestLanesDrainBeforeSnapshot: a source closed mid-replay ends run only
// after every lane judged all it was sent — every frame read is accounted
// for, and a snapshot taken when run returns restores to exactly the
// lanes' state.
func TestLanesDrainBeforeSnapshot(t *testing.T) {
	trace := testTrace(t, 40_000, 200, 500*time.Millisecond)
	bf := shardedFilter(t, 2)
	p, stats := lanedPump(t, trace, 1000, bf, 64)
	p.src = &closeAfter{Source: p.src, reads: 100}
	if err := p.run(); err != nil {
		t.Fatal(err)
	}
	frames := stats.frames.Load()
	if frames == 0 || frames%64 != 0 {
		t.Fatalf("%d frames read before the close, want a positive number of full batches", frames)
	}
	_, decErrs := stats.decodeErrors()
	if sum := stats.outgoing.Load() + stats.incoming.Load() + decErrs + stats.unrouted.Load() + stats.quarantinedFrames.Load(); sum != frames {
		t.Errorf("%d frames read, %d judged or counted", frames, sum)
	}
	if c := bf.Counters(); c.OutPackets != stats.outgoing.Load() || c.InPackets != stats.incoming.Load() {
		t.Errorf("filter counters %+v, pump counted %d out / %d in", c, stats.outgoing.Load(), stats.incoming.Load())
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
	got, want := restored.(*core.Sharded).ShardStats(), bf.ShardStats()
	for i := range want {
		// The APD window and its spared count are not part of a snapshot;
		// everything else is.
		got[i].APDDropProbability, want[i].APDDropProbability = 0, 0
		got[i].APDSpared, want[i].APDSpared = 0, 0
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("shard %d\n  restored: %+v\n  lanes:    %+v", i, got[i], want[i])
		}
	}
}

// drainOnSignal is the daemon-level drain: it runs bfwall over an endless
// replay with args and a checkpoint, sends SIGTERM (cancels) in the middle
// of it, and checks that every frame read was judged and that the final
// checkpoint — read back through counters — restores to the counters the
// exit line reports. The signal is sent once a periodic checkpoint holds a
// judged packet, however long start-up took: a timer measured from the
// test's start can fire before the pump's first read.
func drainOnSignal(t *testing.T, counters func(io.Reader) (filtering.Counters, error), args ...string) {
	t.Helper()
	ckpt := filepath.Join(t.TempDir(), "state.bmf")
	read := func() (filtering.Counters, error) {
		f, err := os.Open(ckpt)
		if err != nil {
			return filtering.Counters{}, err
		}
		defer f.Close()
		return counters(f)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // also stops the poller, should run fail before it signals
	judged := make(chan bool, 1)
	go func() {
		defer cancel()
		for deadline := time.Now().Add(30 * time.Second); ctx.Err() == nil && time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
			if c, err := read(); err == nil && c.OutPackets+c.InPackets > 0 {
				judged <- true
				return
			}
		}
		judged <- false
	}()

	var out bytes.Buffer
	err := run(ctx, append(args, "-loops", "1000000",
		"-scan-pps", "20000", "-conn-rate", "50", "-gen-duration", "100ms",
		"-checkpoint", ckpt, "-checkpoint-every", "20ms"), &out)
	if err != nil {
		t.Fatalf("drain returned error: %v\noutput:\n%s", err, out.String())
	}
	if !<-judged {
		t.Fatalf("no periodic checkpoint with a judged packet in 30 s:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "final checkpoint saved") {
		t.Fatalf("no final checkpoint:\n%s", out.String())
	}
	var exit string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, " frames, ") {
			exit = line
		}
	}
	var frames, outgoing, incoming, passed, dropped, decErrs uint64
	if _, err := fmt.Sscanf(exit, "bfwall: %d frames, %d out / %d in (%d passed, %d dropped), %d decode errors",
		&frames, &outgoing, &incoming, &passed, &dropped, &decErrs); err != nil {
		t.Fatalf("exit line %q: %v\n%s", exit, err, out.String())
	}
	if frames == 0 || frames != outgoing+incoming || incoming != passed+dropped || decErrs != 0 {
		t.Errorf("frames read and frames judged differ: %s", exit)
	}
	c, err := read()
	if err != nil {
		t.Fatal(err)
	}
	if c.OutPackets != outgoing || c.InPackets != incoming || c.InPassed != passed {
		t.Errorf("checkpoint holds %+v, the daemon reported %s", c, exit)
	}
}

func filterCounters(r io.Reader) (filtering.Counters, error) {
	f, err := core.ReadAnySnapshot(r)
	if err != nil {
		return filtering.Counters{}, err
	}
	return f.Counters(), nil
}

// TestLanedDrainOnSignal: SIGTERM in the middle of a replay over two lanes.
// The final checkpoint is taken after the lanes are joined, so the counters
// it restores to are the ones the exit line reports.
func TestLanedDrainOnSignal(t *testing.T) {
	drainOnSignal(t, filterCounters, "-shards", "2")
}

// TestLanePanicQuarantinesSubBatch is TestPumpQuarantinesPanic for the
// pipeline: lane 1's filter panics on its first sub-batch. That sub-batch
// is quarantined and nothing else — lane 0 ends where the reference
// shard 0 ends, lane 1 judges everything after the fault, run returns.
func TestLanePanicQuarantinesSubBatch(t *testing.T) {
	trace := testTrace(t, 40_000, 200, 200*time.Millisecond)
	pkts := decodeTrace(t, trace)
	ref := shardedFilter(t, 2)
	ref.ProcessBatchInto(pkts, nil)

	bf := shardedFilter(t, 2)
	p, stats := lanedPump(t, trace, 1, bf, 64)
	const batch = minSubBatch // what a lane is handed when -batch is smaller
	p.lanes[1].bf = &panicFilter{BatchFilter: bf.Lane(1), panicOn: 1}
	var logged atomic.Int64
	p.logf = func(string, ...any) { logged.Add(1) }
	if err := p.run(); err != nil {
		t.Fatalf("pump died on a contained panic: %v", err)
	}

	if got := stats.quarantinedBatches.Load(); got != 1 {
		t.Errorf("quarantined sub-batches = %d, want 1", got)
	}
	if got := stats.quarantinedFrames.Load(); got != batch {
		t.Errorf("quarantined frames = %d, want one full sub-batch of %d", got, batch)
	}
	if logged.Load() != 1 {
		t.Errorf("quarantine logged %d times, want 1", logged.Load())
	}
	if got, want := bf.ShardStats()[0], ref.ShardStats()[0]; !reflect.DeepEqual(got, want) {
		t.Errorf("lane 0 felt lane 1's panic\n  lane 0:    %+v\n  reference: %+v", got, want)
	}
	c1, want1 := bf.ShardStats()[1].Counters, ref.ShardStats()[1].Counters
	if got := c1.OutPackets + c1.InPackets + batch; got != want1.OutPackets+want1.InPackets {
		t.Errorf("lane 1 judged %d packets + %d quarantined, its share is %d", got-batch, batch, want1.OutPackets+want1.InPackets)
	}
	if sum := stats.outgoing.Load() + stats.incoming.Load() + stats.quarantinedFrames.Load(); sum != stats.frames.Load() {
		t.Errorf("%d frames read, %d judged or quarantined", stats.frames.Load(), sum)
	}
}

// signalFilter reports each judged batch's size on a channel.
type signalFilter struct {
	filtering.BatchFilter
	judged chan int
}

func (s *signalFilter) ProcessBatchInto(pkts []packet.Packet, out []filtering.Verdict) []filtering.Verdict {
	out = s.BatchFilter.ProcessBatchInto(pkts, out)
	s.judged <- len(pkts)
	return out
}

// TestLaneFlushesShortBatch: one frame from a live source gets its verdict
// with no further traffic — a short read flushes the pending sub-batches
// instead of waiting for 511 more frames.
func TestLaneFlushesShortBatch(t *testing.T) {
	frame := encodeFrame(t, packet.Packet{Time: time.Second,
		Tuple: packet.Tuple{Src: packet.AddrFrom4(10, 0, 0, 5), Dst: packet.AddrFrom4(198, 51, 100, 7),
			SrcPort: 4000, DstPort: 80, Proto: packet.TCP},
		Dir: packet.Outgoing, Flags: packet.SYN, Length: 60})
	lb := capture.NewLoopback()
	bf := shardedFilter(t, 2)
	subnets, _ := parseSubnets("10.0.0.0/8")
	stats := newWallStats(time.Now())
	p := newPump(lb, bf, subnets, 512, 0, stats)
	judged := make(chan int, 1)
	for i, l := range p.lanes {
		l.bf = &signalFilter{BatchFilter: bf.Lane(i), judged: judged}
	}
	done := make(chan error, 1)
	go func() { done <- p.run() }()

	if err := lb.WriteFrame(capture.Frame{Time: time.Second, Data: frame}); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-judged:
		if n != 1 {
			t.Errorf("sub-batch of %d packets, want the one frame", n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the frame waits in a pending sub-batch: no verdict without further traffic")
	}
	lb.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := stats.outgoing.Load(); got != 1 {
		t.Errorf("outgoing = %d, want 1", got)
	}
}

// TestLanedPumpZeroAllocsSteadyState extends the hot-loop contract to the
// pipeline: sub-batches recycle through the free lists, so dispatch, the
// hand-off and the lanes' judging allocate nothing per frame once warm.
func TestLanedPumpZeroAllocsSteadyState(t *testing.T) {
	batch := make([]capture.Frame, 64)
	for i := range batch {
		data := encodeFrame(t, packet.Packet{
			Tuple: packet.Tuple{Src: packet.AddrFrom4(10, 0, 0, byte(i)), Dst: packet.AddrFrom4(198, 51, 100, 7),
				SrcPort: uint16(4000 + i), DstPort: 80, Proto: packet.TCP},
			Dir: packet.Outgoing, Flags: packet.SYN, Length: 60})
		batch[i] = capture.Frame{Time: time.Duration(i) * time.Millisecond, Data: data, OrigLen: len(data)}
	}
	bf := shardedFilter(t, 2)
	subnets, _ := parseSubnets("10.0.0.0/8")
	stats := newWallStats(time.Now())
	p := newPump(nil, bf, subnets, 16, 0, stats)
	p.startLanes()
	for i := 0; i < 4*laneBuffers; i++ { // warm: every buffer, both verdict slices
		p.dispatch(batch, true)
	}
	full := testing.AllocsPerRun(100, func() { p.dispatch(batch, false) })
	flushed := testing.AllocsPerRun(100, func() { p.dispatch(batch, true) })
	p.stopLanes()
	if full != 0 || flushed != 0 {
		t.Errorf("laned pump allocates per source batch: %.2f with full hand-offs, %.2f with flushes", full, flushed)
	}
	if lanes := p.lanes[0].frames.Load() + p.lanes[1].frames.Load(); lanes != stats.frames.Load() ||
		p.lanes[0].frames.Load() == 0 || p.lanes[1].frames.Load() == 0 {
		t.Errorf("lanes judged %d + %d packets of %d dispatched", p.lanes[0].frames.Load(), p.lanes[1].frames.Load(), stats.frames.Load())
	}
}

// wedgeFilter blocks inside its first ProcessBatchInto until released.
type wedgeFilter struct {
	filtering.BatchFilter
	once             sync.Once
	entered, release chan struct{}
}

func (w *wedgeFilter) ProcessBatchInto(pkts []packet.Packet, out []filtering.Verdict) []filtering.Verdict {
	w.once.Do(func() {
		close(w.entered)
		<-w.release
	})
	return w.BatchFilter.ProcessBatchInto(pkts, out)
}

// TestLaneObservability: the pipeline's per-lane series on /stats and
// /metrics, and a wedged lane flipping /healthz by name — lane 1 of two over
// a sharded filter, and the one lane of a fleet.
func TestLaneObservability(t *testing.T) {
	// Enough frames for one lane alone to fill all eight of its sub-batches.
	t.Run("shards", func(t *testing.T) {
		bf := shardedFilter(t, 2)
		p, stats := lanedPump(t, testTrace(t, 40_000, 200, 300*time.Millisecond), 1, bf, 64)
		wedge := &wedgeFilter{BatchFilter: bf.Lane(1), entered: make(chan struct{}), release: make(chan struct{})}
		p.lanes[1].bf = wedge
		checkLaneObservability(t, p, stats, bf, 1, wedge.entered, wedge.release)
	})
	t.Run("fleet", func(t *testing.T) {
		set := fleetSet(t)
		p, stats := fleetPump(t, testTraceOver(t, fleetClients, 40_000, 200, 300*time.Millisecond), 1, set, 64)
		wedge := &wedgeRouted{routedFilter: set, entered: make(chan struct{}), release: make(chan struct{})}
		p.lanes[0].routed = wedge
		checkLaneObservability(t, p, stats, set, 0, wedge.entered, wedge.release)
	})
}

// checkLaneObservability runs p, whose lane number wedged blocks in its
// first sub-batch until released, and reads the monitoring plane while the
// lane is stuck and after the run.
func checkLaneObservability(t *testing.T, p *pump, stats *wallStats, bf filtering.BatchFilter, wedged int, entered <-chan struct{}, release chan<- struct{}) {
	var clock atomic.Int64
	wd := resilience.NewWatchdog(func() time.Duration { return time.Duration(clock.Load()) })
	health := resilience.NewHealth(wd)
	for i, l := range p.lanes {
		l.probe = wd.Heartbeat(fmt.Sprintf("lane%d", i), 100*time.Millisecond)
	}
	srv := httptest.NewServer(newMux(stats, bf, &resiliencePlane{health: health, stats: stats}))
	defer srv.Close()
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
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
	<-entered // the lane is inside its filter and stays there
	for deadline := time.Now().Add(10 * time.Second); p.lanes[wedged].stalls.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the dispatcher never ran out of buffers for the wedged lane")
		}
	}
	// One sub-batch is in the wedged filter, every other one queued behind it.
	if _, metrics := get("/metrics"); !strings.Contains(metrics,
		fmt.Sprintf(`bitmapfilter_lane_queue_depth{lane="%d"} %d`, wedged, laneBuffers-1)) {
		t.Errorf("/metrics with lane %d wedged and the dispatcher waiting:\n%s", wedged, metrics)
	}
	clock.Store(int64(time.Second))
	if code, body := get("/healthz"); code != 503 || !strings.Contains(body, fmt.Sprintf("lane%d stalled", wedged)) {
		t.Errorf("/healthz with lane %d wedged = %d %q", wedged, code, body)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	_, body := get("/stats")
	var snap statsSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/stats JSON: %v", err)
	}
	if len(snap.Lanes) != len(p.lanes) {
		t.Fatalf("/stats has %d lanes, the pump %d", len(snap.Lanes), len(p.lanes))
	}
	_, metrics := get("/metrics")
	var judged uint64
	for i, l := range snap.Lanes {
		judged += l.Frames
		if l.Batches == 0 {
			t.Errorf("/stats lane %d judged no sub-batch: %+v", i, l)
		}
		for _, want := range []string{
			fmt.Sprintf(`bitmapfilter_lane_frames_total{lane="%d"} %d`, i, l.Frames),
			fmt.Sprintf(`bitmapfilter_lane_sub_batches_total{lane="%d"} %d`, i, l.Batches),
			fmt.Sprintf(`bitmapfilter_lane_queue_depth{lane="%d"} 0`, i),
			fmt.Sprintf(`bitmapfilter_lane_dispatcher_stalls_total{lane="%d"} %d`, i, l.Stalls),
			fmt.Sprintf(`bitmapfilter_resilience_probe_stalled{probe="lane%d"} 0`, i),
		} {
			if !strings.Contains(metrics, want) {
				t.Errorf("/metrics missing %q", want)
			}
		}
	}
	if judged == 0 || judged != snap.Outgoing+snap.Incoming || judged+snap.Unrouted != snap.Frames {
		t.Errorf("/stats lanes judged %d of %d frames (%d out, %d in, %d unrouted)", judged, snap.Frames, snap.Outgoing, snap.Incoming, snap.Unrouted)
	}
	// Per-packet latency runs from the read that opened a sub-batch to its
	// last verdict: the wedge is inside it.
	if snap.LatencyP99Ns <= 0 {
		t.Errorf("/stats latency p99 = %d", snap.LatencyP99Ns)
	}
}
