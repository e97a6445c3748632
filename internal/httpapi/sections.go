package httpapi

import (
	"fmt"
	"net/http"
	"time"

	"bitmapfilter/internal/checkpoint"
	"bitmapfilter/internal/resilience"
)

// MountProbes serves, for bfserve and bfwall alike, GET /healthz — 503 and
// the stalled probes' names when a supervised loop stalls — and GET /readyz
// — 503 and the reason until the daemon is ready, and again once it drains,
// so a load balancer stops routing the moment draining starts. With a nil
// health both answer ok whenever the daemon serves.
func MountProbes(mux *http.ServeMux, health *resilience.Health) {
	probe := func(check func() (bool, string), failing string) http.HandlerFunc {
		return func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			if health != nil {
				if ok, detail := check(); !ok {
					w.WriteHeader(http.StatusServiceUnavailable)
					fmt.Fprintln(w, failing, detail)
					return
				}
			}
			fmt.Fprintln(w, "ok")
		}
	}
	mux.HandleFunc("GET /healthz", probe(health.Live, "stalled:"))
	mux.HandleFunc("GET /readyz", probe(health.Ready, "not ready:"))
}

// WriteHealth writes the bitmapfilter_resilience_* health series: what the
// probes answer, the lifecycle state, and the watchdog's view of every
// supervised loop. A nil health writes nothing.
func WriteHealth(e *Expo, health *resilience.Health) {
	if health == nil {
		return
	}
	live, _ := health.Live()
	ready, _ := health.Ready()
	e.Gauge("bitmapfilter_resilience_live", "Whether every supervised loop is making progress").Bool(live)
	e.Gauge("bitmapfilter_resilience_ready", "Whether the daemon should receive new traffic").Bool(ready)
	state := e.Gauges("bitmapfilter_resilience_state", "Daemon lifecycle state (one-hot)", "state")
	for _, s := range []resilience.State{resilience.StateStarting, resilience.StateReady, resilience.StateDraining} {
		state.Bool(s.String(), health.State() == s)
	}
	wd := health.Watchdog()
	if wd == nil {
		return
	}
	probes := wd.Status()
	beats := e.Counters("bitmapfilter_resilience_probe_beats_total", "Loop iterations recorded by each watchdog probe", "probe")
	for _, p := range probes {
		beats.Int(p.Name, p.Beats)
	}
	age := e.Gauges("bitmapfilter_resilience_probe_age_seconds", "Seconds since each probe last made progress", "probe")
	for _, p := range probes {
		age.Float(p.Name, p.Age.Seconds())
	}
	stalled := e.Gauges("bitmapfilter_resilience_probe_stalled", "Whether each probe exceeded its stall threshold", "probe")
	for _, p := range probes {
		stalled.Bool(p.Name, p.Stalled)
	}
}

// WriteCheckpoint writes the bitmapfilter_checkpoint_* family: whether
// checkpointing is configured at all (ctl may be nil) and, if so, what the
// checkpointer has done and which rung of the restore ladder produced the
// running state — all four rungs, one of them 1, so an alert on
// {outcome="primary"} == 0 can fire.
func WriteCheckpoint(e *Expo, ctl CheckpointControl, restore checkpoint.RestoreResult) {
	e.Gauge("bitmapfilter_checkpoint_enabled", "Whether crash-safe checkpointing is configured").Bool(ctl != nil)
	if ctl == nil {
		return
	}
	cs := ctl.Stats()
	age := -1.0
	if !cs.LastSuccess.IsZero() {
		age = time.Since(cs.LastSuccess).Seconds()
	}
	e.Gauge("bitmapfilter_checkpoint_last_success_age_seconds", "Seconds since the newest completed checkpoint (-1 before the first)").Float(age)
	e.Gauge("bitmapfilter_checkpoint_last_size_bytes", "Size of the newest completed checkpoint").Float(float64(cs.LastBytes))
	e.Counter("bitmapfilter_checkpoint_attempts_total", "Checkpoint save attempts, including retries").Int(cs.Attempts)
	e.Counter("bitmapfilter_checkpoint_success_total", "Completed checkpoints").Int(cs.Successes)
	e.Counter("bitmapfilter_checkpoint_failures_total", "Failed checkpoint save attempts").Int(cs.Failures)
	rung := e.Gauges("bitmapfilter_checkpoint_restore_outcome", "Which restore-ladder rung produced the running state (one-hot)", "outcome")
	for o := checkpoint.OutcomePrimary; o <= checkpoint.OutcomeColdStartCorrupt; o++ { // best to worst
		rung.Bool(o.String(), restore.Outcome == o)
	}
}
