package main

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"bitmapfilter/internal/checkpoint"
	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/httpapi"
	"bitmapfilter/internal/pump"
	"bitmapfilter/internal/resilience"
)

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
	Pump          pumpSnapshot      `json:"pump"`
	Lanes         []laneSnapshot    `json:"lanes,omitempty"`
	Filter        filterSnapshot    `json:"filter"`
}

// pumpSnapshot is the worker pump every filter runs behind.
type pumpSnapshot struct {
	Workers        int    `json:"workers"`
	ForeignCommits uint64 `json:"foreign_commits"`
	BufferWaits    uint64 `json:"buffer_waits"`
	// CommitBusy is the time the commit lock was held: over the wall, the
	// share of it the serial stage (judge, scatter or hand-off) occupies.
	CommitBusy float64 `json:"commit_busy_seconds"`
	// SourceBusy is the time spent in the source's ReadBatch under the source
	// lock, the other serial stage: over frames, at saturation, the read term
	// of a frame (a live source's wait for traffic is inside it).
	SourceBusy float64 `json:"source_busy_seconds"`
}

// laneSnapshot is one lane: a shard's, or a fleet's. dispatcher_stalls
// counts the commit step finding every sub-batch of a shard's lane in flight.
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

// renderStats lays a pump snapshot out as /stats shows it.
func renderStats(snap pump.Snapshot, started, now time.Time) statsSnapshot {
	uptime := now.Sub(started).Seconds()
	per := make(map[string]uint64, len(pump.DecodeClasses))
	for i, class := range pump.DecodeClasses {
		per[class] = snap.DecodeErrors[i]
	}
	var lanes []laneSnapshot
	for _, l := range snap.Lanes {
		lanes = append(lanes, laneSnapshot{Frames: l.Frames, Batches: l.Batches, QueueDepth: l.QueueDepth, Stalls: l.Stalls})
	}
	return statsSnapshot{
		UptimeSeconds: uptime,
		Frames:        snap.Frames,
		Bytes:         snap.Bytes,
		Truncated:     snap.Truncated,
		DecodeErrors:  per,
		Unrouted:      snap.Unrouted,
		Outgoing:      snap.Outgoing,
		Incoming:      snap.Incoming,
		Passed:        snap.Passed,
		Dropped:       snap.Dropped,
		Quarantined:   snap.QuarantinedBatches,
		PPS:           perSecond(snap.Frames, uptime),
		LatencyP50Ns:  int64(snap.LatencyP50),
		LatencyP99Ns:  int64(snap.LatencyP99),
		Pump:          pumpSnapshot{Workers: snap.Workers, ForeignCommits: snap.ForeignCommits, BufferWaits: snap.BufferWaits, CommitBusy: snap.CommitBusy.Seconds(), SourceBusy: snap.SourceBusy.Seconds()},
		Lanes:         lanes,
		Filter:        filterSnapshot{Name: snap.FilterName, MemoryBytes: snap.FilterMemory, Counters: snap.Counters},
	}
}

func perSecond(frames uint64, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(frames) / seconds
}

// resiliencePlane bundles the resilience layer's observable surfaces for
// the monitoring mux. Every field may be nil/zero: the mux degrades to
// the bare pump view (tests and -queue=0 runs).
type resiliencePlane struct {
	sup     *resilience.Supervisor
	buf     *resilience.Buffer
	health  *resilience.Health
	cp      httpapi.CheckpointControl
	restore checkpoint.RestoreResult
	policy  resilience.OverloadPolicy
}

// newMux wires the monitoring endpoints: httpapi's /healthz and /readyz,
// /stats JSON, /metrics Prometheus text exposition. snapshot is the pump's:
// the handlers read nothing else of it.
func newMux(started time.Time, snapshot func() pump.Snapshot, plane *resiliencePlane) *http.ServeMux {
	mux := http.NewServeMux()
	httpapi.MountProbes(mux, plane.health)
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(renderStats(snapshot(), started, time.Now()))
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		snap := snapshot()
		var e httpapi.Expo
		e.Counter("bfwall_frames_total", "Frames read from the source").Int(snap.Frames)
		e.Counter("bfwall_bytes_total", "Bytes of those frames on the wire").Int(snap.Bytes)
		e.Counter("bfwall_truncated_frames_total", "Frames the capture cut short of their wire length").Int(snap.Truncated)
		errs := e.Counters("bfwall_decode_errors_total", "Frames the decoder refused (counted and skipped), by reason", "class")
		for i, class := range pump.DecodeClasses {
			errs.Int(class, snap.DecodeErrors[i])
		}
		e.Counter("bfwall_unrouted_packets_total", "Decoded packets touching no client subnet or tenant prefix: never judged").Int(snap.Unrouted)
		dir := e.Counters("bfwall_packets_total", "Packets handed to the filter, by direction", "dir")
		dir.Int("out", snap.Outgoing)
		dir.Int("in", snap.Incoming)
		verdict := e.Counters("bfwall_verdicts_total", "Verdicts on incoming packets", "verdict")
		verdict.Int("pass", snap.Passed)
		verdict.Int("drop", snap.Dropped)
		e.Gauge("bfwall_pps", "Frames per second since start").Float(perSecond(snap.Frames, time.Since(started).Seconds()))
		latency := e.Gauges("bfwall_packet_latency_seconds", "Per-packet latency from a batch's read to its last verdict (reservoir sample)", "quantile")
		latency.Float("0.5", snap.LatencyP50.Seconds())
		latency.Float("0.99", snap.LatencyP99.Seconds())
		e.Gauge("bfwall_filter_memory_bytes", "Bytes of bitmap behind the pump: (k*2^n)/8, summed over shards or tenants").Int(snap.FilterMemory)
		e.Gauge("bitmapfilter_pump_workers", "W, the symmetric workers in front of the filter: min(GOMAXPROCS, 4)").Int(uint64(snap.Workers))
		e.Counter("bitmapfilter_pump_foreign_commits_total", "Batches committed by a worker that did not decode them").Int(snap.ForeignCommits)
		e.Counter("bitmapfilter_pump_buffer_waits_total", "Times a worker found all its buffers in flight and waited for the judge").Int(snap.BufferWaits)
		e.Counter("bitmapfilter_pump_commit_busy_seconds_total", "Seconds the commit lock was held: the serial stage's share of the wall").Float(snap.CommitBusy.Seconds())
		e.Counter("bitmapfilter_pump_source_busy_seconds_total", "Seconds spent inside the source's ReadBatch under the source lock (a live source's wait for traffic included)").Float(snap.SourceBusy.Seconds())
		e.Counter("bitmapfilter_pump_decode_busy_seconds_total", "Seconds the workers spent decoding and classifying their batches, summed over workers").Float(snap.DecodeBusy.Seconds())
		e.Counter("bitmapfilter_pump_hash_busy_seconds_total", "Seconds the workers spent hashing their batches for a single filter, summed over workers").Float(snap.HashBusy.Seconds())
		var laneBusy time.Duration
		for _, l := range snap.Lanes {
			laneBusy += l.Busy
		}
		e.Counter("bitmapfilter_pump_lane_busy_seconds_total", "Seconds the lanes spent judging, summed over lanes").Float(laneBusy.Seconds())
		e.Counter("bitmapfilter_pump_scatter_busy_seconds_total", "Seconds of the commit lock spent handing batches to the lanes").Float(snap.ScatterBusy.Seconds())
		writeLaneMetrics(&e, snap.Lanes)
		plane.writeMetrics(&e, snap)
		e.Reply(w)
	})
	return mux
}

// writeLaneMetrics writes the lanes' series, one sample per lane; nothing
// for a single filter, which has none.
func writeLaneMetrics(e *httpapi.Expo, lanes []pump.LaneSnapshot) {
	if len(lanes) == 0 {
		return
	}
	perLane := func(f httpapi.Family, v func(pump.LaneSnapshot) uint64) {
		for i, l := range lanes {
			f.Int(strconv.Itoa(i), v(l))
		}
	}
	perLane(e.Counters("bitmapfilter_lane_frames_total", "Packets judged by each lane: a shard's, or the fleet's", "lane"), func(l pump.LaneSnapshot) uint64 { return l.Frames })
	perLane(e.Counters("bitmapfilter_lane_sub_batches_total", "Sub-batches each lane judged", "lane"), func(l pump.LaneSnapshot) uint64 { return l.Batches })
	perLane(e.Gauges("bitmapfilter_lane_queue_depth", "Batches queued for each lane", "lane"), func(l pump.LaneSnapshot) uint64 { return uint64(l.QueueDepth) })
	perLane(e.Counters("bitmapfilter_lane_dispatcher_stalls_total", "Times the commit step found every sub-batch of a shard's lane in flight and waited", "lane"), func(l pump.LaneSnapshot) uint64 { return l.Stalls })
}

// writeMetrics writes the resilience layer's series: the supervisor's, the
// overload queue's and the quarantine's are bfwall's own, the health and
// checkpoint series httpapi's, the same bfserve writes.
func (p *resiliencePlane) writeMetrics(e *httpapi.Expo, snap pump.Snapshot) {
	pol := p.policy.String()
	if p.sup != nil {
		st := p.sup.Stats()
		e.Counter("bitmapfilter_resilience_source_reads_total", "Batches read from the capture source").Int(st.Reads)
		e.Counter("bitmapfilter_resilience_source_transient_errors_total", "Transient source errors absorbed by retry").Int(st.TransientErrors)
		e.Counter("bitmapfilter_resilience_source_reopens_total", "Successful source reopens").Int(st.Reopens)
		e.Counter("bitmapfilter_resilience_source_reopen_failures_total", "Reopen attempts that failed").Int(st.ReopenFailures)
		e.Counter("bitmapfilter_resilience_source_fatal_errors_total", "Errors that exhausted the retry budget").Int(st.FatalErrors)
		e.Counter("bitmapfilter_resilience_backoffs_total", "Supervisor backoff sleeps").Int(st.Backoffs)
		e.Counter("bitmapfilter_resilience_backoff_seconds_total", "Seconds spent backing off").Float(st.BackoffTotal.Seconds())
	}
	if p.buf != nil {
		st := p.buf.Stats()
		e.Gauge("bitmapfilter_resilience_queue_depth", "Frames in the overload queue now").Int(uint64(st.Depth))
		e.Gauge("bitmapfilter_resilience_queue_capacity", "The overload queue's bound (-queue)").Int(uint64(st.Capacity))
		e.Gauge("bitmapfilter_resilience_queue_max_depth", "High-water mark of the overload queue").Int(uint64(st.MaxDepth))
		e.Counter("bitmapfilter_resilience_accepted_frames_total", "Frames queued for the filter").Int(st.Accepted)
		e.Counters("bitmapfilter_resilience_shed_frames_total", "Frames discarded under overload, by -on-overload", "policy").Int(pol, st.Shed)
		e.Counter("bitmapfilter_resilience_shed_events_total", "Transitions into shedding").Int(st.ShedEvents)
		e.Gauge("bitmapfilter_resilience_shedding", "Whether the queue is shedding now").Bool(st.Shedding)
	}
	e.Counter("bitmapfilter_resilience_quarantined_batches_total", "Batches whose judge panicked, isolated").Int(snap.QuarantinedBatches)
	e.Counters("bitmapfilter_resilience_quarantined_frames_total", "Frames in quarantined batches: counted under the overload policy, never judged", "policy").Int(pol, snap.QuarantinedFrames)
	httpapi.WriteHealth(e, p.health)
	httpapi.WriteCheckpoint(e, p.cp, p.restore)
}
