// Package experiments contains the runnable reproductions of every table
// and figure in the paper's evaluation (the E1–E13 index in DESIGN.md).
// Each experiment is a pure function from a configuration to a result
// struct with a Format method, so cmd/bfexp prints them and
// bench_test.go measures them without duplicating logic.
//
// Scale note: the paper's trace is 6 hours at ~24.6 K pps (≈ 532 M
// packets). The default configurations here run the same pipeline at
// laptop scale (minutes, tens of pps of sessions); Scale lets callers
// approach paper scale when they have the time budget.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/trafficgen"
)

// Scale selects how much work an experiment does and which workload
// archetype drives it.
type Scale struct {
	// Duration of the synthetic trace.
	Duration time.Duration
	// ConnRate is the session arrival rate per second.
	ConnRate float64
	// Seed drives all randomness.
	Seed uint64
	// Profile selects the client-network archetype; the zero value is
	// the paper's campus network.
	Profile trafficgen.Profile
}

// DefaultScale is a laptop-friendly configuration: a 10-minute trace with
// 40 sessions/s (≈ 1.5 M packets), enough for every distributional
// statistic to stabilize.
func DefaultScale() Scale {
	return Scale{
		Duration: 10 * time.Minute,
		ConnRate: 40,
		Seed:     1,
	}
}

// QuickScale is used by unit tests and smoke runs.
func QuickScale() Scale {
	return Scale{
		Duration: 3 * time.Minute,
		ConnRate: 25,
		Seed:     1,
	}
}

// TraceConfig converts a Scale into the calibrated generator
// configuration.
func (s Scale) TraceConfig() trafficgen.Config {
	profile := s.Profile
	if profile == 0 {
		profile = trafficgen.ProfileCampus
	}
	cfg := profile.Config()
	cfg.Duration = s.Duration
	cfg.ConnRate = s.ConnRate
	cfg.Seed = s.Seed
	return cfg
}

// drainThrough runs a generator to completion through a filter's batch
// data plane with one reused verdict buffer, for experiments that only
// need the filter's cumulative counters afterwards. Verdict-for-verdict
// identical to a per-packet Drain loop.
func drainThrough(gen *trafficgen.Generator, f filtering.BatchFilter) {
	var verdicts []filtering.Verdict
	gen.DrainBatches(trafficgen.DefaultBatchSize, func(pkts []packet.Packet) {
		verdicts = f.ProcessBatchInto(pkts, verdicts)
	})
}

// table is a tiny fixed-width text table builder shared by the Format
// methods.
type table struct {
	b     strings.Builder
	width []int
}

func newTable(widths ...int) *table {
	return &table{width: widths}
}

func (t *table) row(cells ...string) {
	for i, c := range cells {
		w := 12
		if i < len(t.width) {
			w = t.width[i]
		}
		if i == 0 {
			fmt.Fprintf(&t.b, "%-*s", w, c)
		} else {
			fmt.Fprintf(&t.b, " %*s", w, c)
		}
	}
	t.b.WriteByte('\n')
}

func (t *table) line() {
	total := 0
	for _, w := range t.width {
		total += w + 1
	}
	t.b.WriteString(strings.Repeat("-", total))
	t.b.WriteByte('\n')
}

func (t *table) String() string { return t.b.String() }

func pct(x float64) string {
	return fmt.Sprintf("%.3f%%", x*100)
}
