package core

import (
	"fmt"
	"strings"
	"time"

	"bitmapfilter/internal/filtering"
)

// Stats is a point-in-time introspection snapshot of a Filter, suitable
// for metrics export and operator dashboards.
type Stats struct {
	// Configuration.
	Order       uint
	Vectors     int
	Hashes      int
	RotateEvery time.Duration
	ExpiryTimer time.Duration
	MemoryBytes uint64

	// Clock state.
	Now          time.Duration
	NextRotation time.Duration
	CurrentIndex int
	Rotations    uint64

	// Bitmap state.
	Marks uint64
	// VectorUtilization holds the fill fraction of every vector, index
	// 0 = vector 0 (CurrentIndex names the one lookups use).
	VectorUtilization []float64
	// Utilization is the current vector's fill fraction (U in §4.1).
	Utilization float64
	// PenetrationProbability is U^m (Equation 1).
	PenetrationProbability float64

	// Traffic counters.
	Counters  filtering.Counters
	APDSpared uint64

	// APD state (§5.3). APDEnabled reports whether a DropPolicy is
	// attached; APDPolicy is its Name; APDDropProbability is the
	// policy's drop probability for an unmatched incoming packet at the
	// snapshot's Now (on a Group's aggregate, the mean across members).
	APDEnabled         bool
	APDPolicy          string
	APDDropProbability float64
}

// Stats collects a snapshot. It does not advance the clock; call AdvanceTo
// first if you want rotations due "now" reflected.
func (f *Filter) Stats() Stats {
	s := Stats{
		Order:                  f.cfg.order,
		Vectors:                f.cfg.vectors,
		Hashes:                 f.cfg.hashes,
		RotateEvery:            f.cfg.rotateEvery,
		ExpiryTimer:            f.ExpiryTimer(),
		MemoryBytes:            f.MemoryBytes(),
		Now:                    f.now,
		NextRotation:           f.nextRotate,
		CurrentIndex:           f.idx,
		Rotations:              f.rotations,
		Marks:                  f.marks,
		VectorUtilization:      make([]float64, len(f.vectors)),
		Utilization:            f.Utilization(),
		PenetrationProbability: f.PenetrationProbability(),
		Counters:               f.counters,
		APDSpared:              f.apdSpared,
	}
	for i, v := range f.vectors {
		s.VectorUtilization[i] = v.Utilization()
	}
	if f.cfg.apd != nil {
		s.APDEnabled = true
		s.APDPolicy = f.cfg.apd.Name()
		s.APDDropProbability = f.cfg.apd.DropProbability(f.now)
	}
	return s
}

// String renders the snapshot as a compact multi-line report.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "bitmap{%dx%d,m=%d,dt=%v} mem=%dB Te=%v\n",
		s.Vectors, s.Order, s.Hashes, s.RotateEvery, s.MemoryBytes, s.ExpiryTimer)
	fmt.Fprintf(&b, "clock: now=%v next-rotation=%v rotations=%d current=%d\n",
		s.Now, s.NextRotation, s.Rotations, s.CurrentIndex)
	fmt.Fprintf(&b, "bitmap: marks=%d U=%.6f p=%.3e vectors=", s.Marks, s.Utilization, s.PenetrationProbability)
	for i, u := range s.VectorUtilization {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.4f", u)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "traffic: out=%d in=%d passed=%d dropped=%d apd-spared=%d",
		s.Counters.OutPackets, s.Counters.InPackets,
		s.Counters.InPassed, s.Counters.InDropped, s.APDSpared)
	if s.APDEnabled {
		fmt.Fprintf(&b, "\napd: policy=%s p(drop)=%.4f", s.APDPolicy, s.APDDropProbability)
	}
	return b.String()
}
