package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"bitmapfilter/internal/checkpoint"
	"bitmapfilter/internal/filtering"
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
	cp      *checkpoint.Checkpointer
	restore checkpoint.RestoreResult
	policy  resilience.OverloadPolicy
}

// newMux wires the monitoring endpoints: /healthz liveness (503 when a
// supervised loop stalls), /readyz readiness (503 while starting or
// draining), /stats JSON, /metrics Prometheus text exposition. plane may
// be nil. snapshot is the pump's: the handlers read nothing else of it.
func newMux(started time.Time, snapshot func() pump.Snapshot, plane *resiliencePlane) *http.ServeMux {
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
		_ = enc.Encode(renderStats(snapshot(), started, time.Now()))
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		snap := snapshot()
		fmt.Fprintf(w, "# TYPE bfwall_frames_total counter\nbfwall_frames_total %d\n", snap.Frames)
		fmt.Fprintf(w, "# TYPE bfwall_bytes_total counter\nbfwall_bytes_total %d\n", snap.Bytes)
		fmt.Fprintf(w, "# TYPE bfwall_truncated_frames_total counter\nbfwall_truncated_frames_total %d\n", snap.Truncated)
		fmt.Fprintf(w, "# TYPE bfwall_decode_errors_total counter\n")
		for i, class := range pump.DecodeClasses {
			fmt.Fprintf(w, "bfwall_decode_errors_total{class=%q} %d\n", class, snap.DecodeErrors[i])
		}
		fmt.Fprintf(w, "# TYPE bfwall_unrouted_packets_total counter\nbfwall_unrouted_packets_total %d\n", snap.Unrouted)
		fmt.Fprintf(w, "# TYPE bfwall_packets_total counter\n")
		fmt.Fprintf(w, "bfwall_packets_total{dir=\"out\"} %d\n", snap.Outgoing)
		fmt.Fprintf(w, "bfwall_packets_total{dir=\"in\"} %d\n", snap.Incoming)
		fmt.Fprintf(w, "# TYPE bfwall_verdicts_total counter\n")
		fmt.Fprintf(w, "bfwall_verdicts_total{verdict=\"pass\"} %d\n", snap.Passed)
		fmt.Fprintf(w, "bfwall_verdicts_total{verdict=\"drop\"} %d\n", snap.Dropped)
		fmt.Fprintf(w, "# TYPE bfwall_pps gauge\nbfwall_pps %g\n", perSecond(snap.Frames, time.Since(started).Seconds()))
		fmt.Fprintf(w, "# TYPE bfwall_packet_latency_seconds gauge\n")
		fmt.Fprintf(w, "bfwall_packet_latency_seconds{quantile=\"0.5\"} %g\n", snap.LatencyP50.Seconds())
		fmt.Fprintf(w, "bfwall_packet_latency_seconds{quantile=\"0.99\"} %g\n", snap.LatencyP99.Seconds())
		fmt.Fprintf(w, "# TYPE bfwall_filter_memory_bytes gauge\nbfwall_filter_memory_bytes %d\n", snap.FilterMemory)
		fmt.Fprintf(w, "# TYPE bitmapfilter_pump_workers gauge\nbitmapfilter_pump_workers %d\n", snap.Workers)
		fmt.Fprintf(w, "# TYPE bitmapfilter_pump_foreign_commits_total counter\nbitmapfilter_pump_foreign_commits_total %d\n", snap.ForeignCommits)
		fmt.Fprintf(w, "# TYPE bitmapfilter_pump_buffer_waits_total counter\nbitmapfilter_pump_buffer_waits_total %d\n", snap.BufferWaits)
		fmt.Fprintf(w, "# TYPE bitmapfilter_pump_commit_busy_seconds_total counter\nbitmapfilter_pump_commit_busy_seconds_total %g\n", snap.CommitBusy.Seconds())
		fmt.Fprintf(w, "# TYPE bitmapfilter_pump_source_busy_seconds_total counter\nbitmapfilter_pump_source_busy_seconds_total %g\n", snap.SourceBusy.Seconds())
		writeLaneMetrics(w, snap.Lanes)
		if plane != nil {
			plane.writeMetrics(w, snap)
		}
	})
	return mux
}

// writeLaneMetrics renders the lanes' series, one sample per lane; nothing
// for a single filter, which has none.
func writeLaneMetrics(w io.Writer, lanes []pump.LaneSnapshot) {
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
func (p *resiliencePlane) writeMetrics(w io.Writer, snap pump.Snapshot) {
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
	fmt.Fprintf(w, "# TYPE bitmapfilter_resilience_quarantined_batches_total counter\nbitmapfilter_resilience_quarantined_batches_total %d\n", snap.QuarantinedBatches)
	fmt.Fprintf(w, "# TYPE bitmapfilter_resilience_quarantined_frames_total counter\nbitmapfilter_resilience_quarantined_frames_total{policy=%q} %d\n", pol, snap.QuarantinedFrames)
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
