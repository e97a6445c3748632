// Package httpapi exposes a monitoring and control plane for a live
// bitmap filter over HTTP, the surface an operator integration would
// scrape and script against:
//
//	GET  /healthz     liveness probe (503 when a supervised loop stalls)
//	GET  /readyz      readiness probe (503 while starting or draining)
//	GET  /stats       full filter introspection as JSON
//	GET  /metrics     Prometheus text exposition of the key gauges/counters
//	POST /punch       §5.1 hole punching: ?local=10.0.0.5&port=20000
//	                  &remote=198.51.100.7&proto=tcp
//	POST /checkpoint  persist a snapshot now (with WithCheckpointer)
//
// Everything is stdlib net/http; construct the handler with New and mount
// it on any server.
//
// The Prometheus text format lives here for the whole repo: Expo is its one
// writer, and MountProbes, WriteHealth and WriteCheckpoint are what a daemon
// with its own mux (cmd/bfwall) serves exactly as New does. DESIGN.md §8 is
// the registry of every series; TestMetricsContract holds the scrape to it.
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"bitmapfilter/internal/checkpoint"
	"bitmapfilter/internal/core"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/resilience"
	"bitmapfilter/internal/tenant"
)

// ErrNilFilter is returned by New when no filter is supplied.
var ErrNilFilter = errors.New("httpapi: nil filter")

// Filter is the surface the API scrapes and controls. The wall-clock
// adapter (*live.Filter) satisfies it, as do *core.Safe and
// *core.Sharded for embedders that drive virtual time themselves.
type Filter interface {
	Stats() core.Stats
	PunchHole(local packet.Addr, localPort uint16, remote packet.Addr, proto packet.Proto)
}

// ShardStatser is the optional per-shard introspection extension.
// *core.Sharded implements it natively and *live.Filter forwards it (nil
// for an unsharded inner filter); when snapshots are present, /stats and
// /metrics include per-shard breakdowns.
type ShardStatser interface {
	ShardStats() []core.Stats
}

// TenantStatser is the optional per-tenant introspection extension.
// *tenant.Set implements it natively and *live.Filter forwards it (nil
// for a single-tenant inner filter); when snapshots are present, /stats
// gains a per-tenant array and /metrics the bitmapfilter_tenant_*
// series, each labeled with the tenant id.
type TenantStatser interface {
	TenantStats() []tenant.Stat
	UnroutedPackets() uint64
}

// CheckpointControl is the checkpoint surface the API drives:
// *checkpoint.Checkpointer implements it.
type CheckpointControl interface {
	// CheckpointNow persists one snapshot synchronously.
	CheckpointNow() error
	// Stats returns the checkpointer's counters for metrics export.
	Stats() checkpoint.Stats
}

// Option configures optional API surfaces.
type Option interface {
	apply(*API)
}

type checkpointOption struct {
	ctl     CheckpointControl
	restore checkpoint.RestoreResult
}

func (o checkpointOption) apply(a *API) {
	a.checkpoints = o.ctl
	a.restore = o.restore
}

// WithCheckpointer enables the checkpoint control plane: POST
// /checkpoint triggers an immediate save, and /stats and /metrics gain
// the bitmapfilter_checkpoint_* series, including the startup restore
// outcome.
func WithCheckpointer(ctl CheckpointControl, restore checkpoint.RestoreResult) Option {
	return checkpointOption{ctl: ctl, restore: restore}
}

type healthOption struct{ h *resilience.Health }

func (o healthOption) apply(a *API) { a.health = o.h }

// WithHealth wires the resilience layer's health view into the probes
// and metrics: /healthz answers 503 when a supervised loop stalls,
// /readyz answers 503 until the daemon is ready (and again once it
// drains), and /metrics gains the bitmapfilter_resilience_* series —
// lifecycle state plus per-probe beats, ages and stall flags.
func WithHealth(h *resilience.Health) Option {
	return healthOption{h: h}
}

// API serves the endpoints for one live filter.
type API struct {
	filter      Filter
	mux         *http.ServeMux
	start       time.Time
	checkpoints CheckpointControl
	restore     checkpoint.RestoreResult
	health      *resilience.Health
}

var _ http.Handler = (*API)(nil)

// New builds the handler around f.
func New(f Filter, opts ...Option) (*API, error) {
	if f == nil {
		return nil, ErrNilFilter
	}
	a := &API{
		filter: f,
		mux:    http.NewServeMux(),
		start:  time.Now(),
	}
	for _, o := range opts {
		o.apply(a)
	}
	MountProbes(a.mux, a.health)
	a.mux.HandleFunc("GET /stats", a.handleStats)
	a.mux.HandleFunc("GET /metrics", a.handleMetrics)
	a.mux.HandleFunc("POST /punch", a.handlePunch)
	if a.checkpoints != nil {
		a.mux.HandleFunc("POST /checkpoint", a.handleCheckpoint)
	}
	return a, nil
}

// ServeHTTP implements http.Handler.
func (a *API) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	a.mux.ServeHTTP(w, r)
}

// statsPayload is the JSON shape of /stats.
type statsPayload struct {
	UptimeSeconds float64 `json:"uptimeSeconds"`

	Order       uint   `json:"order"`
	Vectors     int    `json:"vectors"`
	Hashes      int    `json:"hashes"`
	RotateNs    int64  `json:"rotateEveryNs"`
	ExpiryNs    int64  `json:"expiryTimerNs"`
	MemoryBytes uint64 `json:"memoryBytes"`

	Rotations    uint64 `json:"rotations"`
	CurrentIndex int    `json:"currentIndex"`
	Marks        uint64 `json:"marks"`

	Utilization       float64   `json:"utilization"`
	VectorUtilization []float64 `json:"vectorUtilization"`
	Penetration       float64   `json:"penetrationProbability"`

	OutPackets uint64 `json:"outPackets"`
	InPackets  uint64 `json:"inPackets"`
	InPassed   uint64 `json:"inPassed"`
	InDropped  uint64 `json:"inDropped"`
	APDSpared  uint64 `json:"apdSpared"`

	APDEnabled         bool    `json:"apdEnabled"`
	APDPolicy          string  `json:"apdPolicy,omitempty"`
	APDDropProbability float64 `json:"apdDropProbability"`

	// Shards holds per-shard breakdowns for sharded filters (absent
	// otherwise). Top-level fields are then cross-shard aggregates.
	Shards []shardPayload `json:"shards,omitempty"`

	// Tenants holds per-tenant breakdowns for multi-tenant sets (absent
	// otherwise). Top-level fields are then cross-tenant aggregates,
	// and UnroutedPackets counts the pass-through traffic no tenant
	// prefix claimed.
	Tenants         []tenantPayload `json:"tenants,omitempty"`
	UnroutedPackets uint64          `json:"unroutedPackets,omitempty"`

	// Checkpoint reports the durability subsystem (absent when the
	// daemon runs without -checkpoint).
	Checkpoint *checkpointPayload `json:"checkpoint,omitempty"`
}

// checkpointPayload is the /stats slice of the checkpoint subsystem.
type checkpointPayload struct {
	RestoreOutcome        string  `json:"restoreOutcome"`
	RestoredFrom          string  `json:"restoredFrom,omitempty"`
	IntervalNs            int64   `json:"intervalNs"`
	Attempts              uint64  `json:"attempts"`
	Successes             uint64  `json:"successes"`
	Failures              uint64  `json:"failures"`
	LastSuccessAgeSeconds float64 `json:"lastSuccessAgeSeconds"` // -1 before the first success
	LastBytes             int64   `json:"lastBytes"`
	LastError             string  `json:"lastError,omitempty"`
}

// shardPayload is the per-shard slice of /stats for sharded filters.
type shardPayload struct {
	Utilization        float64 `json:"utilization"`
	APDDropProbability float64 `json:"apdDropProbability"`
	APDSpared          uint64  `json:"apdSpared"`
	InPackets          uint64  `json:"inPackets"`
	InDropped          uint64  `json:"inDropped"`
}

// tenantPayload is the per-tenant slice of /stats for multi-tenant sets:
// the identity plus the same introspection a single filter reports.
type tenantPayload struct {
	ID     string `json:"id"`
	Prefix string `json:"prefix"`

	Order       uint   `json:"order"`
	Vectors     int    `json:"vectors"`
	Hashes      int    `json:"hashes"`
	MemoryBytes uint64 `json:"memoryBytes"`
	Rotations   uint64 `json:"rotations"`
	Marks       uint64 `json:"marks"`

	Utilization float64 `json:"utilization"`
	Penetration float64 `json:"penetrationProbability"`

	OutPackets uint64 `json:"outPackets"`
	InPackets  uint64 `json:"inPackets"`
	InPassed   uint64 `json:"inPassed"`
	InDropped  uint64 `json:"inDropped"`

	APDEnabled         bool    `json:"apdEnabled"`
	APDPolicy          string  `json:"apdPolicy,omitempty"`
	APDDropProbability float64 `json:"apdDropProbability"`
	APDSpared          uint64  `json:"apdSpared"`
}

// tenantStats returns per-tenant snapshots when the filter exposes them,
// nil otherwise.
func (a *API) tenantStats() ([]tenant.Stat, uint64) {
	if ts, ok := a.filter.(TenantStatser); ok {
		return ts.TenantStats(), ts.UnroutedPackets()
	}
	return nil, 0
}

// shardStats returns per-shard snapshots when the filter exposes them,
// nil otherwise.
func (a *API) shardStats() []core.Stats {
	if ss, ok := a.filter.(ShardStatser); ok {
		return ss.ShardStats()
	}
	return nil
}

func (a *API) handleStats(w http.ResponseWriter, _ *http.Request) {
	s := a.filter.Stats()
	payload := statsPayload{
		UptimeSeconds:      time.Since(a.start).Seconds(),
		Order:              s.Order,
		Vectors:            s.Vectors,
		Hashes:             s.Hashes,
		RotateNs:           int64(s.RotateEvery),
		ExpiryNs:           int64(s.ExpiryTimer),
		MemoryBytes:        s.MemoryBytes,
		Rotations:          s.Rotations,
		CurrentIndex:       s.CurrentIndex,
		Marks:              s.Marks,
		Utilization:        s.Utilization,
		VectorUtilization:  s.VectorUtilization,
		Penetration:        s.PenetrationProbability,
		OutPackets:         s.Counters.OutPackets,
		InPackets:          s.Counters.InPackets,
		InPassed:           s.Counters.InPassed,
		InDropped:          s.Counters.InDropped,
		APDSpared:          s.APDSpared,
		APDEnabled:         s.APDEnabled,
		APDPolicy:          s.APDPolicy,
		APDDropProbability: s.APDDropProbability,
	}
	for _, st := range a.shardStats() {
		payload.Shards = append(payload.Shards, shardPayload{
			Utilization:        st.Utilization,
			APDDropProbability: st.APDDropProbability,
			APDSpared:          st.APDSpared,
			InPackets:          st.Counters.InPackets,
			InDropped:          st.Counters.InDropped,
		})
	}
	if tenants, unrouted := a.tenantStats(); len(tenants) > 0 {
		payload.UnroutedPackets = unrouted
		for _, ts := range tenants {
			payload.Tenants = append(payload.Tenants, tenantPayload{
				ID:                 ts.ID,
				Prefix:             ts.Prefix.String(),
				Order:              ts.Stats.Order,
				Vectors:            ts.Stats.Vectors,
				Hashes:             ts.Stats.Hashes,
				MemoryBytes:        ts.Stats.MemoryBytes,
				Rotations:          ts.Stats.Rotations,
				Marks:              ts.Stats.Marks,
				Utilization:        ts.Stats.Utilization,
				Penetration:        ts.Stats.PenetrationProbability,
				OutPackets:         ts.Stats.Counters.OutPackets,
				InPackets:          ts.Stats.Counters.InPackets,
				InPassed:           ts.Stats.Counters.InPassed,
				InDropped:          ts.Stats.Counters.InDropped,
				APDEnabled:         ts.Stats.APDEnabled,
				APDPolicy:          ts.Stats.APDPolicy,
				APDDropProbability: ts.Stats.APDDropProbability,
				APDSpared:          ts.Stats.APDSpared,
			})
		}
	}
	if a.checkpoints != nil {
		cs := a.checkpoints.Stats()
		age := -1.0
		if !cs.LastSuccess.IsZero() {
			age = time.Since(cs.LastSuccess).Seconds()
		}
		payload.Checkpoint = &checkpointPayload{
			RestoreOutcome:        a.restore.Outcome.String(),
			RestoredFrom:          a.restore.File,
			IntervalNs:            int64(cs.Interval),
			Attempts:              cs.Attempts,
			Successes:             cs.Successes,
			Failures:              cs.Failures,
			LastSuccessAgeSeconds: age,
			LastBytes:             cs.LastBytes,
			LastError:             cs.LastError,
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(payload); err != nil {
		// Too late for a status change; the connection likely broke.
		return
	}
}

func (a *API) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s := a.filter.Stats()
	var e Expo
	e.Gauge("bitmapfilter_utilization", "Fill fraction of the current bit vector (U)").Float(s.Utilization)
	// O(1) reads of each vector's running popcount: free at any order n.
	vector := e.Gauges("bitmapfilter_vector_utilization", "Fill fraction of each bit vector", "vector")
	for i, u := range s.VectorUtilization {
		vector.Float(strconv.Itoa(i), u)
	}
	e.Gauge("bitmapfilter_current_vector_index", "Index of the vector incoming lookups consult").Int(uint64(s.CurrentIndex))
	e.Gauge("bitmapfilter_penetration_probability", "Random-packet penetration probability U^m (Equation 1)").Float(s.PenetrationProbability)
	e.Gauge("bitmapfilter_memory_bytes", "Fixed bitmap footprint (k*2^n)/8").Float(float64(s.MemoryBytes))
	e.Counter("bitmapfilter_rotations_total", "b.rotate invocations").Int(s.Rotations)
	e.Counter("bitmapfilter_marks_total", "Outgoing packets that marked the bitmap").Int(s.Marks)
	e.Counter("bitmapfilter_out_packets_total", "Outgoing packets observed").Int(s.Counters.OutPackets)
	e.Counter("bitmapfilter_in_packets_total", "Incoming packets observed").Int(s.Counters.InPackets)
	e.Counter("bitmapfilter_in_dropped_total", "Incoming packets dropped").Int(s.Counters.InDropped)
	e.Counter("bitmapfilter_apd_spared_total", "Unmatched incoming packets admitted by APD").Int(s.APDSpared)
	e.Gauge("bitmapfilter_apd_enabled", "Whether an adaptive-packet-dropping policy is attached (§5.3)").Bool(s.APDEnabled)
	e.Gauge("bitmapfilter_apd_drop_probability", "Drop probability for unmatched incoming packets; mean across shards on a sharded filter").Float(s.APDDropProbability)
	if per := a.shardStats(); len(per) > 0 {
		drop := e.Gauges("bitmapfilter_shard_apd_drop_probability", "Per-shard APD drop probability (the shard's clone of the policy)", "shard")
		for i, st := range per {
			drop.Float(strconv.Itoa(i), st.APDDropProbability)
		}
		util := e.Gauges("bitmapfilter_shard_utilization", "Per-shard current-vector fill fraction", "shard")
		for i, st := range per {
			util.Float(strconv.Itoa(i), st.Utilization)
		}
		spared := e.Counters("bitmapfilter_shard_apd_spared_total", "Per-shard unmatched incoming packets admitted by APD", "shard")
		for i, st := range per {
			spared.Int(strconv.Itoa(i), st.APDSpared)
		}
	}
	if tenants, unrouted := a.tenantStats(); len(tenants) > 0 {
		gauges := func(name, help string, v func(core.Stats) float64) {
			f := e.Gauges(name, help, "tenant")
			for _, ts := range tenants {
				f.Float(ts.ID, v(ts.Stats))
			}
		}
		counters := func(name, help string, v func(core.Stats) uint64) {
			f := e.Counters(name, help, "tenant")
			for _, ts := range tenants {
				f.Int(ts.ID, v(ts.Stats))
			}
		}
		gauges("bitmapfilter_tenant_utilization", "Per-tenant current-vector fill fraction", func(st core.Stats) float64 { return st.Utilization })
		gauges("bitmapfilter_tenant_penetration_probability", "Per-tenant random-packet penetration probability U^m", func(st core.Stats) float64 { return st.PenetrationProbability })
		gauges("bitmapfilter_tenant_memory_bytes", "Per-tenant bitmap footprint (changes when the budget rebalances)", func(st core.Stats) float64 { return float64(st.MemoryBytes) })
		gauges("bitmapfilter_tenant_order", "Per-tenant bitmap order n (vector size 2^n bits)", func(st core.Stats) float64 { return float64(st.Order) })
		gauges("bitmapfilter_tenant_apd_drop_probability", "Per-tenant APD drop probability for unmatched incoming packets", func(st core.Stats) float64 { return st.APDDropProbability })
		counters("bitmapfilter_tenant_out_packets_total", "Per-tenant outgoing packets observed", func(st core.Stats) uint64 { return st.Counters.OutPackets })
		counters("bitmapfilter_tenant_in_packets_total", "Per-tenant incoming packets observed", func(st core.Stats) uint64 { return st.Counters.InPackets })
		counters("bitmapfilter_tenant_in_dropped_total", "Per-tenant incoming packets dropped", func(st core.Stats) uint64 { return st.Counters.InDropped })
		counters("bitmapfilter_tenant_apd_spared_total", "Per-tenant unmatched incoming packets admitted by APD", func(st core.Stats) uint64 { return st.APDSpared })
		e.Counter("bitmapfilter_unrouted_packets_total", "Packets passed through unfiltered because no tenant prefix matched").Int(unrouted)
	}
	WriteHealth(&e, a.health)
	WriteCheckpoint(&e, a.checkpoints, a.restore)
	e.Reply(w)
}

// handleCheckpoint persists a snapshot immediately (operator-triggered,
// e.g. ahead of a planned restart).
func (a *API) handleCheckpoint(w http.ResponseWriter, _ *http.Request) {
	if err := a.checkpoints.CheckpointNow(); err != nil {
		http.Error(w, "checkpoint failed: "+err.Error(), http.StatusInternalServerError)
		return
	}
	cs := a.checkpoints.Stats()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "checkpointed %d bytes\n", cs.LastBytes)
}

// handlePunch implements operator-driven §5.1 hole punching.
func (a *API) handlePunch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	local, err := parseAddr(q.Get("local"))
	if err != nil {
		http.Error(w, "local: "+err.Error(), http.StatusBadRequest)
		return
	}
	remote, err := parseAddr(q.Get("remote"))
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
	a.filter.PunchHole(local, uint16(port), remote, proto)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "punched %s:%d <- %s/%s\n", local, port, remote, proto)
}

// parseAddr parses a dotted-quad IPv4 address.
func parseAddr(s string) (packet.Addr, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("%q is not a dotted-quad IPv4 address", s)
	}
	var quad [4]byte
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 || v > 255 {
			return 0, fmt.Errorf("bad octet %q", p)
		}
		quad[i] = byte(v)
	}
	return packet.AddrFrom4(quad[0], quad[1], quad[2], quad[3]), nil
}
