package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bitmapfilter/internal/checkpoint"
	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/resilience"
	"bitmapfilter/internal/xrand"
)

// Decode-error classes surfaced on /stats and /metrics. Real links carry
// traffic the filter deliberately refuses to judge (ARP, IPv6, fragments,
// corrupt frames); per-class counters separate "the wire is weird" from
// "the decoder is broken".
const (
	decTruncated = iota
	decNotIPv4
	decMalformed
	decChecksum
	decFragmented
	decProto
	decOther
	decClasses
)

var decClassNames = [decClasses]string{
	"truncated", "not_ipv4", "malformed", "checksum", "fragmented", "proto", "other",
}

func decClass(err error) int {
	switch {
	case errors.Is(err, packet.ErrTruncated):
		return decTruncated
	case errors.Is(err, packet.ErrNotIPv4):
		return decNotIPv4
	case errors.Is(err, packet.ErrBadIPVersion), errors.Is(err, packet.ErrBadIHL):
		return decMalformed
	case errors.Is(err, packet.ErrBadChecksum):
		return decChecksum
	case errors.Is(err, packet.ErrFragmented):
		return decFragmented
	case errors.Is(err, packet.ErrProto):
		return decProto
	default:
		return decOther
	}
}

// reservoirSize bounds the latency sample set: enough for a stable p99,
// constant memory regardless of run length.
const reservoirSize = 4096

// wallStats is the daemon's observability state. The counters are written
// by the pump's workers or its dispatcher and lanes and read by HTTP
// handlers, so everything is atomic; the latency reservoir has its own lock
// (taken once per batch, and doing work only for the packets that land in
// the reservoir).
type wallStats struct {
	start time.Time
	// pump is the pump these are the counters of, set once by newPump (nil
	// when there is none: a mux over bare stats). The handlers read its
	// per-worker and per-lane counters, and its filter through filterView.
	pump *pump

	frames    atomic.Uint64
	bytes     atomic.Uint64
	truncated atomic.Uint64
	decodeErr [decClasses]atomic.Uint64
	unrouted  atomic.Uint64 // decodable but outside every client subnet

	outgoing atomic.Uint64
	incoming atomic.Uint64
	passed   atomic.Uint64
	dropped  atomic.Uint64

	// Panic containment: batches quarantined by the pump's recover
	// boundary, and the frames they carried (never judged).
	quarantinedBatches atomic.Uint64
	quarantinedFrames  atomic.Uint64

	mu      sync.Mutex
	rng     *xrand.Rand
	samples []time.Duration // per-packet latency reservoir
	seen    uint64
	// Skip-ahead state of the reservoir (Li's Algorithm L), live once
	// samples is full: skip arrivals pass unsampled before the next one
	// replaces a random slot; w is the running key threshold the skips
	// are drawn from.
	w    float64
	skip uint64
}

func newWallStats(start time.Time) *wallStats {
	return &wallStats{
		start:   start,
		rng:     xrand.New(0xbf0a11),
		samples: make([]time.Duration, 0, reservoirSize),
	}
}

// addIntake folds one source batch's decode-side tallies in.
func (s *wallStats) addIntake(t intake) {
	s.bytes.Add(t.bytes)
	s.truncated.Add(t.truncated)
	s.unrouted.Add(t.unrouted)
}

// addVerdicts counts one judged batch by direction and verdict: summed in
// locals, one atomic add each.
//
//bf:hotpath
func (s *wallStats) addVerdicts(pkts []packet.Packet, verdicts []filtering.Verdict) {
	var out, in, pass uint64
	for i := range pkts {
		if pkts[i].Dir == packet.Outgoing {
			out++
			continue
		}
		in++
		if verdicts[i] == filtering.Pass {
			pass++
		}
	}
	s.outgoing.Add(out)
	s.incoming.Add(in)
	s.passed.Add(pass)
	s.dropped.Add(in - pass)
}

// observeBatchLatency folds one batch's wall-clock processing time into
// the per-packet latency reservoir: each of the n packets is attributed
// the batch average, which is exactly the per-packet cost the saturation
// question cares about (can the loop keep up), without a clock read per
// packet.
//
// The reservoir is a uniform sample over packets, not batches. Instead of
// a coin per packet it draws how many arrivals to skip until the next
// replacement, so a full reservoir costs one subtraction per batch and
// random draws only per replacement (about reservoirSize·ln(seen/
// reservoirSize) over a run). The draws depend on the arrival count alone:
// a batch of n leaves the reservoir exactly as n single observations do.
func (s *wallStats) observeBatchLatency(elapsed time.Duration, n int) {
	if n <= 0 {
		return
	}
	per := elapsed / time.Duration(n)
	s.mu.Lock()
	defer s.mu.Unlock()
	left := uint64(n)
	s.seen += left
	if len(s.samples) < reservoirSize {
		for ; left > 0 && len(s.samples) < reservoirSize; left-- {
			s.samples = append(s.samples, per)
		}
		if len(s.samples) == reservoirSize {
			s.w = 1
			s.drawSkip()
		}
	}
	for left > s.skip {
		left -= s.skip + 1
		s.samples[s.rng.Intn(reservoirSize)] = per
		s.drawSkip()
	}
	s.skip -= left
}

// drawSkip advances Algorithm L: shrink the threshold by the largest of
// reservoirSize uniform keys, then draw the geometric number of arrivals
// whose keys all exceed it.
func (s *wallStats) drawSkip() {
	s.w *= math.Exp(-s.rng.Exp(1) / reservoirSize)
	s.skip = uint64(s.rng.Exp(1) / -math.Log1p(-s.w))
}

// latencyQuantiles returns the requested quantiles of the reservoir
// (zeros when nothing was sampled yet).
func (s *wallStats) latencyQuantiles(qs ...float64) []time.Duration {
	s.mu.Lock()
	sorted := append([]time.Duration(nil), s.samples...)
	s.mu.Unlock()
	out := make([]time.Duration, len(qs))
	if len(sorted) == 0 {
		return out
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i, q := range qs {
		idx := int(q * float64(len(sorted)-1))
		out[i] = sorted[idx]
	}
	return out
}

func (s *wallStats) decodeErrors() (per map[string]uint64, total uint64) {
	per = make(map[string]uint64, decClasses)
	for i := range s.decodeErr {
		v := s.decodeErr[i].Load()
		per[decClassNames[i]] = v
		total += v
	}
	return per, total
}

// statsSnapshot is the JSON shape of GET /stats.
type statsSnapshot struct {
	UptimeSeconds float64           `json:"uptime_seconds"`
	Frames        uint64            `json:"frames"`
	Bytes         uint64            `json:"bytes"`
	Truncated     uint64            `json:"truncated"`
	DecodeErrors  map[string]uint64 `json:"decode_errors"`
	Unrouted      uint64            `json:"unrouted"`
	Outgoing      uint64            `json:"outgoing"`
	Incoming      uint64            `json:"incoming"`
	Passed        uint64            `json:"passed"`
	Dropped       uint64            `json:"dropped"`
	Quarantined   uint64            `json:"quarantined_batches"`
	PPS           float64           `json:"pps"`
	LatencyP50Ns  int64             `json:"latency_p50_ns"`
	LatencyP99Ns  int64             `json:"latency_p99_ns"`
	Pump          *pumpSnapshot     `json:"pump,omitempty"`
	Lanes         []laneSnapshot    `json:"lanes,omitempty"`
	Filter        filterSnapshot    `json:"filter"`
}

// pumpSnapshot is the worker pump a single filter runs behind.
type pumpSnapshot struct {
	Workers        int    `json:"workers"`
	ForeignCommits uint64 `json:"foreign_commits"`
	BufferWaits    uint64 `json:"buffer_waits"`
}

// laneSnapshot is one lane of the pipeline a sharded filter or a fleet runs
// behind.
type laneSnapshot struct {
	Frames     uint64 `json:"frames"`
	Batches    uint64 `json:"sub_batches"`
	QueueDepth int    `json:"queue_depth"`
	Stalls     uint64 `json:"dispatcher_stalls"`
}

type filterSnapshot struct {
	Name        string             `json:"name"`
	MemoryBytes uint64             `json:"memory_bytes"`
	Counters    filtering.Counters `json:"counters"`
}

func (s *wallStats) snapshot(bf filtering.BatchFilter, now time.Time) statsSnapshot {
	uptime := now.Sub(s.start).Seconds()
	frames := s.frames.Load()
	per, _ := s.decodeErrors()
	lat := s.latencyQuantiles(0.50, 0.99)
	pps := 0.0
	if uptime > 0 {
		pps = float64(frames) / uptime
	}
	var (
		workers *pumpSnapshot
		lanes   []laneSnapshot
	)
	if p := s.pump; p != nil && p.lanes == nil {
		workers = &pumpSnapshot{
			Workers:        len(p.workers),
			ForeignCommits: p.foreignCommits.Load(),
			BufferWaits:    p.bufferWaits.Load(),
		}
	} else if p != nil {
		for _, l := range p.lanes {
			lanes = append(lanes, laneSnapshot{
				Frames:     l.frames.Load(),
				Batches:    l.batches.Load(),
				QueueDepth: len(l.queue),
				Stalls:     l.stalls.Load(),
			})
		}
	}
	return statsSnapshot{
		UptimeSeconds: uptime,
		Frames:        frames,
		Bytes:         s.bytes.Load(),
		Truncated:     s.truncated.Load(),
		DecodeErrors:  per,
		Unrouted:      s.unrouted.Load(),
		Outgoing:      s.outgoing.Load(),
		Incoming:      s.incoming.Load(),
		Passed:        s.passed.Load(),
		Dropped:       s.dropped.Load(),
		Quarantined:   s.quarantinedBatches.Load(),
		PPS:           pps,
		LatencyP50Ns:  int64(lat[0]),
		LatencyP99Ns:  int64(lat[1]),
		Pump:          workers,
		Lanes:         lanes,
		Filter:        s.pump.filterView(bf),
	}
}

// resiliencePlane bundles the resilience layer's observable surfaces for
// the monitoring mux. Every field may be nil/zero: the mux degrades to
// the bare pump view (tests and -queue=0 runs).
type resiliencePlane struct {
	sup     *resilience.Supervisor
	buf     *resilience.Buffer
	health  *resilience.Health
	cp      *checkpoint.Checkpointer
	restore checkpoint.RestoreResult
	policy  resilience.OverloadPolicy
	stats   *wallStats
}

// newMux wires the monitoring endpoints: /healthz liveness (503 when a
// supervised loop stalls), /readyz readiness (503 while starting or
// draining), /stats JSON, /metrics Prometheus text exposition. plane may
// be nil.
func newMux(s *wallStats, bf filtering.BatchFilter, plane *resiliencePlane) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if plane != nil && plane.health != nil {
			if ok, detail := plane.health.Live(); !ok {
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprintln(w, "stalled:", detail)
				return
			}
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if plane != nil && plane.health != nil {
			if ok, detail := plane.health.Ready(); !ok {
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprintln(w, "not ready:", detail)
				return
			}
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.snapshot(bf, time.Now()))
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		snap := s.snapshot(bf, time.Now())
		fmt.Fprintf(w, "# TYPE bfwall_frames_total counter\nbfwall_frames_total %d\n", snap.Frames)
		fmt.Fprintf(w, "# TYPE bfwall_bytes_total counter\nbfwall_bytes_total %d\n", snap.Bytes)
		fmt.Fprintf(w, "# TYPE bfwall_truncated_frames_total counter\nbfwall_truncated_frames_total %d\n", snap.Truncated)
		fmt.Fprintf(w, "# TYPE bfwall_decode_errors_total counter\n")
		for i := range decClassNames {
			fmt.Fprintf(w, "bfwall_decode_errors_total{class=%q} %d\n",
				decClassNames[i], snap.DecodeErrors[decClassNames[i]])
		}
		fmt.Fprintf(w, "# TYPE bfwall_unrouted_packets_total counter\nbfwall_unrouted_packets_total %d\n", snap.Unrouted)
		fmt.Fprintf(w, "# TYPE bfwall_packets_total counter\n")
		fmt.Fprintf(w, "bfwall_packets_total{dir=\"out\"} %d\n", snap.Outgoing)
		fmt.Fprintf(w, "bfwall_packets_total{dir=\"in\"} %d\n", snap.Incoming)
		fmt.Fprintf(w, "# TYPE bfwall_verdicts_total counter\n")
		fmt.Fprintf(w, "bfwall_verdicts_total{verdict=\"pass\"} %d\n", snap.Passed)
		fmt.Fprintf(w, "bfwall_verdicts_total{verdict=\"drop\"} %d\n", snap.Dropped)
		fmt.Fprintf(w, "# TYPE bfwall_pps gauge\nbfwall_pps %g\n", snap.PPS)
		fmt.Fprintf(w, "# TYPE bfwall_packet_latency_seconds gauge\n")
		fmt.Fprintf(w, "bfwall_packet_latency_seconds{quantile=\"0.5\"} %g\n",
			time.Duration(snap.LatencyP50Ns).Seconds())
		fmt.Fprintf(w, "bfwall_packet_latency_seconds{quantile=\"0.99\"} %g\n",
			time.Duration(snap.LatencyP99Ns).Seconds())
		fmt.Fprintf(w, "# TYPE bfwall_filter_memory_bytes gauge\nbfwall_filter_memory_bytes %d\n",
			snap.Filter.MemoryBytes)
		writePumpMetrics(w, snap.Pump)
		writeLaneMetrics(w, snap.Lanes)
		if plane != nil {
			plane.writeMetrics(w)
		}
	})
	return mux
}

// writePumpMetrics renders the worker pump's series; nothing for a lane
// pipeline.
func writePumpMetrics(w io.Writer, p *pumpSnapshot) {
	if p == nil {
		return
	}
	fmt.Fprintf(w, "# TYPE bitmapfilter_pump_workers gauge\nbitmapfilter_pump_workers %d\n", p.Workers)
	fmt.Fprintf(w, "# TYPE bitmapfilter_pump_foreign_commits_total counter\nbitmapfilter_pump_foreign_commits_total %d\n", p.ForeignCommits)
	fmt.Fprintf(w, "# TYPE bitmapfilter_pump_buffer_waits_total counter\nbitmapfilter_pump_buffer_waits_total %d\n", p.BufferWaits)
}

// writeLaneMetrics renders the lane pipeline's series, one sample per lane;
// nothing for the worker pump.
func writeLaneMetrics(w io.Writer, lanes []laneSnapshot) {
	if len(lanes) == 0 {
		return
	}
	fmt.Fprintf(w, "# TYPE bitmapfilter_lane_frames_total counter\n")
	for i, l := range lanes {
		fmt.Fprintf(w, "bitmapfilter_lane_frames_total{lane=\"%d\"} %d\n", i, l.Frames)
	}
	fmt.Fprintf(w, "# TYPE bitmapfilter_lane_sub_batches_total counter\n")
	for i, l := range lanes {
		fmt.Fprintf(w, "bitmapfilter_lane_sub_batches_total{lane=\"%d\"} %d\n", i, l.Batches)
	}
	fmt.Fprintf(w, "# TYPE bitmapfilter_lane_queue_depth gauge\n")
	for i, l := range lanes {
		fmt.Fprintf(w, "bitmapfilter_lane_queue_depth{lane=\"%d\"} %d\n", i, l.QueueDepth)
	}
	fmt.Fprintf(w, "# TYPE bitmapfilter_lane_dispatcher_stalls_total counter\n")
	for i, l := range lanes {
		fmt.Fprintf(w, "bitmapfilter_lane_dispatcher_stalls_total{lane=\"%d\"} %d\n", i, l.Stalls)
	}
}

// writeMetrics renders the resilience layer's Prometheus series. The
// bitmapfilter_resilience_* namespace is shared with internal/httpapi so
// one alert set covers both daemons.
func (p *resiliencePlane) writeMetrics(w io.Writer) {
	pol := p.policy.String()
	if p.sup != nil {
		st := p.sup.Stats()
		fmt.Fprintf(w, "# TYPE bitmapfilter_resilience_source_reads_total counter\nbitmapfilter_resilience_source_reads_total %d\n", st.Reads)
		fmt.Fprintf(w, "# TYPE bitmapfilter_resilience_source_transient_errors_total counter\nbitmapfilter_resilience_source_transient_errors_total %d\n", st.TransientErrors)
		fmt.Fprintf(w, "# TYPE bitmapfilter_resilience_source_reopens_total counter\nbitmapfilter_resilience_source_reopens_total %d\n", st.Reopens)
		fmt.Fprintf(w, "# TYPE bitmapfilter_resilience_source_reopen_failures_total counter\nbitmapfilter_resilience_source_reopen_failures_total %d\n", st.ReopenFailures)
		fmt.Fprintf(w, "# TYPE bitmapfilter_resilience_source_fatal_errors_total counter\nbitmapfilter_resilience_source_fatal_errors_total %d\n", st.FatalErrors)
		fmt.Fprintf(w, "# TYPE bitmapfilter_resilience_backoffs_total counter\nbitmapfilter_resilience_backoffs_total %d\n", st.Backoffs)
		fmt.Fprintf(w, "# TYPE bitmapfilter_resilience_backoff_seconds_total counter\nbitmapfilter_resilience_backoff_seconds_total %g\n", st.BackoffTotal.Seconds())
	}
	if p.buf != nil {
		st := p.buf.Stats()
		fmt.Fprintf(w, "# TYPE bitmapfilter_resilience_queue_depth gauge\nbitmapfilter_resilience_queue_depth %d\n", st.Depth)
		fmt.Fprintf(w, "# TYPE bitmapfilter_resilience_queue_capacity gauge\nbitmapfilter_resilience_queue_capacity %d\n", st.Capacity)
		fmt.Fprintf(w, "# TYPE bitmapfilter_resilience_queue_max_depth gauge\nbitmapfilter_resilience_queue_max_depth %d\n", st.MaxDepth)
		fmt.Fprintf(w, "# TYPE bitmapfilter_resilience_accepted_frames_total counter\nbitmapfilter_resilience_accepted_frames_total %d\n", st.Accepted)
		fmt.Fprintf(w, "# TYPE bitmapfilter_resilience_shed_frames_total counter\nbitmapfilter_resilience_shed_frames_total{policy=%q} %d\n", pol, st.Shed)
		fmt.Fprintf(w, "# TYPE bitmapfilter_resilience_shed_events_total counter\nbitmapfilter_resilience_shed_events_total %d\n", st.ShedEvents)
		shedding := 0
		if st.Shedding {
			shedding = 1
		}
		fmt.Fprintf(w, "# TYPE bitmapfilter_resilience_shedding gauge\nbitmapfilter_resilience_shedding %d\n", shedding)
	}
	if p.stats != nil {
		fmt.Fprintf(w, "# TYPE bitmapfilter_resilience_quarantined_batches_total counter\nbitmapfilter_resilience_quarantined_batches_total %d\n", p.stats.quarantinedBatches.Load())
		fmt.Fprintf(w, "# TYPE bitmapfilter_resilience_quarantined_frames_total counter\nbitmapfilter_resilience_quarantined_frames_total{policy=%q} %d\n", pol, p.stats.quarantinedFrames.Load())
	}
	if p.health != nil {
		live, _ := p.health.Live()
		ready, _ := p.health.Ready()
		fmt.Fprintf(w, "# TYPE bitmapfilter_resilience_live gauge\nbitmapfilter_resilience_live %d\n", b2i(live))
		fmt.Fprintf(w, "# TYPE bitmapfilter_resilience_ready gauge\nbitmapfilter_resilience_ready %d\n", b2i(ready))
		state := p.health.State()
		fmt.Fprintf(w, "# TYPE bitmapfilter_resilience_state gauge\n")
		for _, s := range []resilience.State{resilience.StateStarting, resilience.StateReady, resilience.StateDraining} {
			fmt.Fprintf(w, "bitmapfilter_resilience_state{state=%q} %d\n", s, b2i(s == state))
		}
		if wd := p.health.Watchdog(); wd != nil {
			fmt.Fprintf(w, "# TYPE bitmapfilter_resilience_probe_beats_total counter\n")
			fmt.Fprintf(w, "# TYPE bitmapfilter_resilience_probe_age_seconds gauge\n")
			fmt.Fprintf(w, "# TYPE bitmapfilter_resilience_probe_stalled gauge\n")
			for _, ps := range wd.Status() {
				fmt.Fprintf(w, "bitmapfilter_resilience_probe_beats_total{probe=%q} %d\n", ps.Name, ps.Beats)
				fmt.Fprintf(w, "bitmapfilter_resilience_probe_age_seconds{probe=%q} %g\n", ps.Name, ps.Age.Seconds())
				fmt.Fprintf(w, "bitmapfilter_resilience_probe_stalled{probe=%q} %d\n", ps.Name, b2i(ps.Stalled))
			}
		}
	}
	if p.cp != nil {
		st := p.cp.Stats()
		fmt.Fprintf(w, "# TYPE bitmapfilter_resilience_checkpoint_successes_total counter\nbitmapfilter_resilience_checkpoint_successes_total %d\n", st.Successes)
		fmt.Fprintf(w, "# TYPE bitmapfilter_resilience_checkpoint_failures_total counter\nbitmapfilter_resilience_checkpoint_failures_total %d\n", st.Failures)
		fmt.Fprintf(w, "# TYPE bitmapfilter_resilience_restore_outcome gauge\nbitmapfilter_resilience_restore_outcome{outcome=%q} 1\n", p.restore.Outcome)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
