package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"bitmapfilter/internal/checkpoint"
	"bitmapfilter/internal/core"
	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/httpapi"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/pump"
	"bitmapfilter/internal/resilience"
	"bitmapfilter/internal/tenant"
)

// statsSnapshot is the JSON shape of GET /stats.
type statsSnapshot struct {
	UptimeSeconds float64             `json:"uptime_seconds"`
	Frames        uint64              `json:"frames"`
	Bytes         uint64              `json:"bytes"`
	Truncated     uint64              `json:"truncated"`
	DecodeErrors  map[string]uint64   `json:"decode_errors"`
	Unrouted      uint64              `json:"unrouted"`
	Outgoing      uint64              `json:"outgoing"`
	Incoming      uint64              `json:"incoming"`
	Passed        uint64              `json:"passed"`
	Dropped       uint64              `json:"dropped"`
	Quarantined   uint64              `json:"quarantined_batches"`
	PPS           float64             `json:"pps"`
	LatencyP50Ns  int64               `json:"latency_p50_ns"`
	LatencyP99Ns  int64               `json:"latency_p99_ns"`
	Pump          pumpSnapshot        `json:"pump"`
	Filter        filterSnapshot      `json:"filter"`
	Bitmap        *bitmapSnapshot     `json:"bitmap,omitempty"`
	Checkpoint    *checkpointSnapshot `json:"checkpoint,omitempty"`
}

// pumpSnapshot is the worker pump every filter runs behind.
type pumpSnapshot struct {
	Workers        int    `json:"workers"`
	ForeignCommits uint64 `json:"foreign_commits"`
	BufferWaits    uint64 `json:"buffer_waits"`
	// CommitBusy is the time the commit lock was held: over the wall, the
	// share of it the serial stage, the judge, occupies.
	CommitBusy float64 `json:"commit_busy_seconds"`
	// SourceBusy is the time spent in the source's ReadBatch under the source
	// lock, the other serial stage: over frames, at saturation, the read term
	// of a frame (a live source's wait for traffic is inside it).
	SourceBusy float64 `json:"source_busy_seconds"`
}

type filterSnapshot struct {
	Name        string             `json:"name"`
	MemoryBytes uint64             `json:"memory_bytes"`
	Counters    filtering.Counters `json:"counters"`
}

// bitmapSnapshot is the bitmap's own state — how full it is, how often it
// rotated, what APD does — as /stats shows it and /metrics writes it: the
// aggregate, and each shard or tenant.
type bitmapSnapshot struct {
	Utilization        float64          `json:"utilization"`
	VectorUtilization  []float64        `json:"vector_utilization"`
	CurrentVector      int              `json:"current_vector_index"`
	Penetration        float64          `json:"penetration_probability"`
	Rotations          uint64           `json:"rotations"`
	Marks              uint64           `json:"marks"`
	APDEnabled         bool             `json:"apd_enabled"`
	APDDropProbability float64          `json:"apd_drop_probability"`
	APDSpared          uint64           `json:"apd_spared"`
	Shards             []shardSnapshot  `json:"shards,omitempty"`
	Tenants            []tenantSnapshot `json:"tenants,omitempty"`
}

type shardSnapshot struct {
	Utilization        float64 `json:"utilization"`
	APDDropProbability float64 `json:"apd_drop_probability"`
	APDSpared          uint64  `json:"apd_spared"`
}

type tenantSnapshot struct {
	ID                 string  `json:"id"`
	Utilization        float64 `json:"utilization"`
	Penetration        float64 `json:"penetration_probability"`
	MemoryBytes        uint64  `json:"memory_bytes"`
	Order              uint    `json:"order"`
	APDDropProbability float64 `json:"apd_drop_probability"`
	OutPackets         uint64  `json:"out_packets"`
	InPackets          uint64  `json:"in_packets"`
	InDropped          uint64  `json:"in_dropped"`
	APDSpared          uint64  `json:"apd_spared"`
}

// checkpointSnapshot is the checkpointer and the restore-ladder rung that
// produced the running state; absent without -checkpoint.
type checkpointSnapshot struct {
	RestoreOutcome string  `json:"restore_outcome"`
	RestoredFrom   string  `json:"restored_from,omitempty"`
	Interval       float64 `json:"interval_seconds"`
	Attempts       uint64  `json:"attempts"`
	Successes      uint64  `json:"successes"`
	Failures       uint64  `json:"failures"`
	LastSuccessAge float64 `json:"last_success_age_seconds"` // -1 before the first success
	LastBytes      int64   `json:"last_bytes"`
	LastError      string  `json:"last_error,omitempty"`
}

// renderStats lays a pump snapshot out as /stats shows it.
func renderStats(snap pump.Snapshot, started, now time.Time) statsSnapshot {
	uptime := now.Sub(started).Seconds()
	per := make(map[string]uint64, len(pump.DecodeClasses))
	for i, class := range pump.DecodeClasses {
		per[class] = snap.DecodeErrors[i]
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
		Filter:        filterSnapshot{Name: snap.FilterName, MemoryBytes: snap.FilterMemory, Counters: snap.Counters},
	}
}

func perSecond(frames uint64, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(frames) / seconds
}

// bitmap is what the control plane reads and changes of the filter itself,
// through controlPlane.locked; a sharded filter also answers ShardStats, a
// fleet TenantStats, and both lock themselves.
type bitmap interface {
	Stats() core.Stats
	PunchHole(local packet.Addr, localPort uint16, remote packet.Addr, proto packet.Proto)
}

// controlPlane bundles what the monitoring mux serves beside the pump's
// snapshot: the bitmap, and the resilience layer's observable surfaces.
// Every field may be nil/zero: the mux degrades to the bare pump view
// (tests, and runs without -queue or -checkpoint).
type controlPlane struct {
	bf bitmap
	// locked runs its function with bf to itself: the pump's Locked. Nil
	// where no pump judges bf.
	locked  func(func())
	sup     *resilience.Supervisor
	buf     *resilience.Buffer
	health  *resilience.Health
	cp      *checkpoint.Checkpointer
	restore checkpoint.RestoreResult
}

// with runs fn with the filter to itself.
func (p *controlPlane) with(fn func()) {
	if p.locked == nil {
		fn()
		return
	}
	p.locked(fn)
}

// newMux wires the endpoints: httpapi's /healthz and /readyz, /stats JSON,
// /metrics Prometheus text exposition, and the control plane's POST /punch
// and POST /checkpoint. snapshot is the pump's, and never touches the filter;
// the bitmap's block of /stats and /metrics reads the filter through the
// pump's Locked, so it waits for at most the batches being committed.
func newMux(started time.Time, snapshot func() pump.Snapshot, plane *controlPlane) *http.ServeMux {
	mux := http.NewServeMux()
	httpapi.MountProbes(mux, plane.health)
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		s := renderStats(snapshot(), started, time.Now())
		s.Bitmap, s.Checkpoint = plane.readBitmap(), plane.readCheckpoint()
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s)
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
		latency := e.Gauges("bfwall_packet_latency_seconds", "Per-packet latency from a batch's read to its last verdict (every packet counted, buckets within 1/8)", "quantile")
		latency.Float("0.5", snap.LatencyP50.Seconds())
		latency.Float("0.99", snap.LatencyP99.Seconds())
		e.Gauge("bfwall_filter_memory_bytes", "Bytes of bitmap behind the pump: (k*2^n)/8, summed over shards or tenants").Int(snap.FilterMemory)
		e.Gauge("bitmapfilter_pump_workers", "W, the symmetric workers in front of the filter: min(GOMAXPROCS, 4)").Int(uint64(snap.Workers))
		e.Counter("bitmapfilter_pump_foreign_commits_total", "Batches committed by a worker that did not decode them").Int(snap.ForeignCommits)
		e.Counter("bitmapfilter_pump_buffer_waits_total", "Times a worker found all its buffers in flight and waited for the judge").Int(snap.BufferWaits)
		e.Counter("bitmapfilter_pump_commit_busy_seconds_total", "Seconds the commit lock was held: the serial stage's share of the wall").Float(snap.CommitBusy.Seconds())
		e.Counter("bitmapfilter_pump_source_busy_seconds_total", "Seconds spent inside the source's ReadBatch under the source lock (a live source's wait for traffic included)").Float(snap.SourceBusy.Seconds())
		e.Counter("bitmapfilter_pump_decode_busy_seconds_total", "Seconds the workers spent decoding and classifying their batches, summed over workers").Float(snap.DecodeBusy.Seconds())
		e.Counter("bitmapfilter_pump_hash_busy_seconds_total", "Seconds the workers spent hashing their batches for a single filter, shards or a fleet, summed over workers").Float(snap.HashBusy.Seconds())
		if b := plane.readBitmap(); b != nil {
			writeBitmapMetrics(&e, b)
		}
		plane.writeMetrics(&e, snap)
		e.Reply(w)
	})
	if plane.bf != nil {
		mux.HandleFunc("POST /punch", plane.punch)
	}
	if plane.cp != nil {
		mux.HandleFunc("POST /checkpoint", plane.checkpointNow)
	}
	return mux
}

// readBitmap reads the filter's own state, or nil without one, with the
// filter to itself: at most the wait for the batches being committed. The
// clock is not advanced — bfwall's filter clock is its packets' — so on an
// idle link the gauges hold their last value.
func (p *controlPlane) readBitmap() *bitmapSnapshot {
	if p.bf == nil {
		return nil
	}
	var s core.Stats
	p.with(func() { s = p.bf.Stats() })
	b := &bitmapSnapshot{
		Utilization: s.Utilization, VectorUtilization: s.VectorUtilization, CurrentVector: s.CurrentIndex,
		Penetration: s.PenetrationProbability, Rotations: s.Rotations, Marks: s.Marks,
		APDEnabled: s.APDEnabled, APDDropProbability: s.APDDropProbability, APDSpared: s.APDSpared,
	}
	if sh, ok := p.bf.(interface{ ShardStats() []core.Stats }); ok {
		for _, s := range sh.ShardStats() {
			b.Shards = append(b.Shards, shardSnapshot{Utilization: s.Utilization, APDDropProbability: s.APDDropProbability, APDSpared: s.APDSpared})
		}
	}
	if ts, ok := p.bf.(interface{ TenantStats() []tenant.Stat }); ok {
		for _, t := range ts.TenantStats() {
			s := t.Stats
			b.Tenants = append(b.Tenants, tenantSnapshot{
				ID: t.ID, Utilization: s.Utilization, Penetration: s.PenetrationProbability, MemoryBytes: s.MemoryBytes, Order: s.Order,
				APDDropProbability: s.APDDropProbability, OutPackets: s.Counters.OutPackets, InPackets: s.Counters.InPackets,
				InDropped: s.Counters.InDropped, APDSpared: s.APDSpared,
			})
		}
	}
	return b
}

// writeBitmapMetrics writes the bitmap's series: the aggregate, then one
// sample per shard or per tenant.
func writeBitmapMetrics(e *httpapi.Expo, b *bitmapSnapshot) {
	e.Gauge("bitmapfilter_utilization", "Fill fraction of the current bit vector (U)").Float(b.Utilization)
	// O(1) reads of each vector's running popcount: free at any order n.
	vector := e.Gauges("bitmapfilter_vector_utilization", "Fill fraction of each bit vector", "vector")
	for i, u := range b.VectorUtilization {
		vector.Float(strconv.Itoa(i), u)
	}
	e.Gauge("bitmapfilter_current_vector_index", "Index of the vector incoming lookups consult").Int(uint64(b.CurrentVector))
	e.Gauge("bitmapfilter_penetration_probability", "Random-packet penetration probability U^m (Equation 1)").Float(b.Penetration)
	e.Counter("bitmapfilter_rotations_total", "b.rotate invocations").Int(b.Rotations)
	e.Counter("bitmapfilter_marks_total", "Outgoing packets that marked the bitmap").Int(b.Marks)
	e.Counter("bitmapfilter_apd_spared_total", "Unmatched incoming packets admitted by APD").Int(b.APDSpared)
	e.Gauge("bitmapfilter_apd_enabled", "Whether an adaptive-packet-dropping policy is attached (§5.3)").Bool(b.APDEnabled)
	e.Gauge("bitmapfilter_apd_drop_probability", "Drop probability for unmatched incoming packets; mean across shards on a sharded filter").Float(b.APDDropProbability)
	if len(b.Shards) > 0 {
		perShard := func(f httpapi.Family, v func(shardSnapshot) float64) {
			for i, s := range b.Shards {
				f.Float(strconv.Itoa(i), v(s))
			}
		}
		perShard(e.Gauges("bitmapfilter_shard_apd_drop_probability", "Per-shard APD drop probability (the shard's clone of the policy)", "shard"), func(s shardSnapshot) float64 { return s.APDDropProbability })
		perShard(e.Gauges("bitmapfilter_shard_utilization", "Per-shard current-vector fill fraction", "shard"), func(s shardSnapshot) float64 { return s.Utilization })
		spared := e.Counters("bitmapfilter_shard_apd_spared_total", "Per-shard unmatched incoming packets admitted by APD", "shard")
		for i, s := range b.Shards {
			spared.Int(strconv.Itoa(i), s.APDSpared)
		}
	}
	if len(b.Tenants) == 0 {
		return
	}
	gauges := func(name, help string, v func(tenantSnapshot) float64) {
		f := e.Gauges(name, help, "tenant")
		for _, t := range b.Tenants {
			f.Float(t.ID, v(t))
		}
	}
	counters := func(name, help string, v func(tenantSnapshot) uint64) {
		f := e.Counters(name, help, "tenant")
		for _, t := range b.Tenants {
			f.Int(t.ID, v(t))
		}
	}
	gauges("bitmapfilter_tenant_utilization", "Per-tenant current-vector fill fraction", func(t tenantSnapshot) float64 { return t.Utilization })
	gauges("bitmapfilter_tenant_penetration_probability", "Per-tenant random-packet penetration probability U^m", func(t tenantSnapshot) float64 { return t.Penetration })
	gauges("bitmapfilter_tenant_memory_bytes", "Per-tenant bitmap footprint (changes when the budget rebalances)", func(t tenantSnapshot) float64 { return float64(t.MemoryBytes) })
	gauges("bitmapfilter_tenant_order", "Per-tenant bitmap order n (vector size 2^n bits)", func(t tenantSnapshot) float64 { return float64(t.Order) })
	gauges("bitmapfilter_tenant_apd_drop_probability", "Per-tenant APD drop probability for unmatched incoming packets", func(t tenantSnapshot) float64 { return t.APDDropProbability })
	counters("bitmapfilter_tenant_out_packets_total", "Per-tenant outgoing packets observed", func(t tenantSnapshot) uint64 { return t.OutPackets })
	counters("bitmapfilter_tenant_in_packets_total", "Per-tenant incoming packets observed", func(t tenantSnapshot) uint64 { return t.InPackets })
	counters("bitmapfilter_tenant_in_dropped_total", "Per-tenant incoming packets dropped", func(t tenantSnapshot) uint64 { return t.InDropped })
	counters("bitmapfilter_tenant_apd_spared_total", "Per-tenant unmatched incoming packets admitted by APD", func(t tenantSnapshot) uint64 { return t.APDSpared })
}

// readCheckpoint reads the checkpointer, or nil without -checkpoint.
func (p *controlPlane) readCheckpoint() *checkpointSnapshot {
	if p.cp == nil {
		return nil
	}
	cs := p.cp.Stats()
	age := -1.0
	if !cs.LastSuccess.IsZero() {
		age = time.Since(cs.LastSuccess).Seconds()
	}
	return &checkpointSnapshot{
		RestoreOutcome: p.restore.Outcome.String(), RestoredFrom: p.restore.File, Interval: cs.Interval.Seconds(),
		Attempts: cs.Attempts, Successes: cs.Successes, Failures: cs.Failures,
		LastSuccessAge: age, LastBytes: cs.LastBytes, LastError: cs.LastError,
	}
}

// checkpointNow is POST /checkpoint: persist a snapshot now, e.g. ahead of a
// planned restart.
func (p *controlPlane) checkpointNow(w http.ResponseWriter, _ *http.Request) {
	if err := p.cp.CheckpointNow(); err != nil {
		http.Error(w, "checkpoint failed: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "checkpointed %d bytes\n", p.cp.Stats().LastBytes)
}

// punch is POST /punch?local=10.0.0.5&port=20000&remote=198.51.100.7&proto=tcp,
// operator-driven §5.1 hole punching: the remote's first packet to local:port
// passes. Addresses parse as -subnets and the fleet config do.
func (p *controlPlane) punch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	local, err := packet.ParseAddr(q.Get("local"))
	if err != nil {
		http.Error(w, "local: "+err.Error(), http.StatusBadRequest)
		return
	}
	remote, err := packet.ParseAddr(q.Get("remote"))
	if err != nil {
		http.Error(w, "remote: "+err.Error(), http.StatusBadRequest)
		return
	}
	port, err := strconv.ParseUint(q.Get("port"), 10, 16)
	if err != nil || port == 0 {
		http.Error(w, "port: must be 1..65535", http.StatusBadRequest)
		return
	}
	proto := packet.TCP
	switch strings.ToLower(q.Get("proto")) {
	case "", "tcp":
	case "udp":
		proto = packet.UDP
	default:
		http.Error(w, "proto: must be tcp or udp", http.StatusBadRequest)
		return
	}
	p.with(func() { p.bf.PunchHole(local, uint16(port), remote, proto) })
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "punched %s:%d <- %s/%s\n", local, port, remote, proto)
}

// writeMetrics writes the resilience layer's series: the supervisor's, the
// overload queue's and the quarantine's, then httpapi's health and
// checkpoint sections.
func (p *controlPlane) writeMetrics(e *httpapi.Expo, snap pump.Snapshot) {
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
		e.Counter("bitmapfilter_resilience_shed_frames_total", "Frames discarded under overload: counted, never judged").Int(st.Shed)
		e.Counter("bitmapfilter_resilience_shed_events_total", "Transitions into shedding").Int(st.ShedEvents)
		e.Gauge("bitmapfilter_resilience_shedding", "Whether the queue is shedding now").Bool(st.Shedding)
	}
	e.Counter("bitmapfilter_resilience_quarantined_batches_total", "Batches whose judge panicked, isolated").Int(snap.QuarantinedBatches)
	e.Counter("bitmapfilter_resilience_quarantined_frames_total", "Frames in quarantined batches: counted, never judged").Int(snap.QuarantinedFrames)
	httpapi.WriteHealth(e, p.health)
	httpapi.WriteCheckpoint(e, p.cp, p.restore)
}
