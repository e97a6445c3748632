// Package stats provides the small statistical toolkit used to regenerate
// the paper's figures: histograms and CDFs (Figure 2), per-interval time
// series (Figure 5), scatter summaries with a least-squares slope
// (Figure 4).
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrArgs is returned for invalid constructor arguments.
var ErrArgs = errors.New("stats: invalid arguments")

// Sample collects raw observations for exact quantiles. Suitable for the
// per-experiment sample counts in this repository (≤ tens of millions).
type Sample struct {
	values []float64
	sorted bool
}

// Add appends one observation.
func (s *Sample) Add(x float64) {
	s.values = append(s.values, x)
	s.sorted = false
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.values) }

func (s *Sample) sortValues() {
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) using linear interpolation,
// or 0 for an empty sample.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.values) == 0 {
		return 0
	}
	s.sortValues()
	if q <= 0 {
		return s.values[0]
	}
	if q >= 1 {
		return s.values[len(s.values)-1]
	}
	pos := q * float64(len(s.values)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s.values) {
		return s.values[lo]
	}
	return s.values[lo]*(1-frac) + s.values[lo+1]*frac
}

// CDFAt returns the empirical P(X ≤ x), or 0 for an empty sample.
func (s *Sample) CDFAt(x float64) float64 {
	if len(s.values) == 0 {
		return 0
	}
	s.sortValues()
	// First index with value > x.
	idx := sort.SearchFloat64s(s.values, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(s.values))
}

// Max returns the largest observation (0 if empty).
func (s *Sample) Max() float64 {
	if len(s.values) == 0 {
		return 0
	}
	s.sortValues()
	return s.values[len(s.values)-1]
}

// Histogram counts observations into fixed-width bins over [0, binWidth ×
// bins); larger values count in the total only, negative values in an
// underflow bin.
type Histogram struct {
	binWidth  float64
	counts    []uint64
	underflow uint64
	total     uint64
}

// NewHistogram returns a histogram with the given number of equal-width
// bins.
func NewHistogram(binWidth float64, bins int) (*Histogram, error) {
	if binWidth <= 0 || bins <= 0 {
		return nil, fmt.Errorf("%w: binWidth=%v bins=%d", ErrArgs, binWidth, bins)
	}
	return &Histogram{binWidth: binWidth, counts: make([]uint64, bins)}, nil
}

// MustNewHistogram is NewHistogram for statically known arguments.
func MustNewHistogram(binWidth float64, bins int) *Histogram {
	h, err := NewHistogram(binWidth, bins)
	if err != nil {
		panic(err)
	}
	return h
}

// Add counts one observation.
func (h *Histogram) Add(x float64) {
	h.total++
	if x < 0 {
		h.underflow++
		return
	}
	if bin := int(x / h.binWidth); bin < len(h.counts) {
		h.counts[bin]++
	}
}

// Bins returns the number of regular bins.
func (h *Histogram) Bins() int { return len(h.counts) }

// Count returns the count in bin i.
func (h *Histogram) Count(i int) uint64 {
	if i < 0 || i >= len(h.counts) {
		return 0
	}
	return h.counts[i]
}

// BinStart returns the lower edge of bin i.
func (h *Histogram) BinStart(i int) float64 { return float64(i) * h.binWidth }

// CDFAt returns the fraction of observations ≤ x (bin-resolution
// approximation: whole bins whose upper edge is ≤ x are counted).
func (h *Histogram) CDFAt(x float64) float64 {
	if h.total == 0 {
		return 0
	}
	var cum uint64 = h.underflow
	for i, c := range h.counts {
		if h.BinStart(i)+h.binWidth <= x {
			cum += c
			continue
		}
		break
	}
	return float64(cum) / float64(h.total)
}

// Peaks returns indexes of local maxima whose count is at least minCount,
// used to locate the 30/60-second port-reuse peaks of Figure 2-b.
func (h *Histogram) Peaks(minCount uint64) []int {
	var peaks []int
	for i := range h.counts {
		c := h.counts[i]
		if c < minCount {
			continue
		}
		left := uint64(0)
		if i > 0 {
			left = h.counts[i-1]
		}
		right := uint64(0)
		if i+1 < len(h.counts) {
			right = h.counts[i+1]
		}
		if c > left && c >= right {
			peaks = append(peaks, i)
		}
	}
	return peaks
}

// TimeSeries buckets counts by fixed time intervals, for the
// packets-per-interval plots of Figure 5.
type TimeSeries struct {
	interval float64 // seconds per bucket
	buckets  []float64
}

// NewTimeSeries returns a series covering n intervals of the given width in
// seconds.
func NewTimeSeries(intervalSec float64, n int) (*TimeSeries, error) {
	if intervalSec <= 0 || n <= 0 {
		return nil, fmt.Errorf("%w: interval=%v n=%d", ErrArgs, intervalSec, n)
	}
	return &TimeSeries{interval: intervalSec, buckets: make([]float64, n)}, nil
}

// MustNewTimeSeries is NewTimeSeries for statically known arguments.
func MustNewTimeSeries(intervalSec float64, n int) *TimeSeries {
	ts, err := NewTimeSeries(intervalSec, n)
	if err != nil {
		panic(err)
	}
	return ts
}

// Add accumulates v at time tSec; observations outside the covered range
// are ignored.
func (ts *TimeSeries) Add(tSec, v float64) {
	if tSec < 0 {
		return
	}
	b := int(tSec / ts.interval)
	if b >= len(ts.buckets) {
		return
	}
	ts.buckets[b] += v
}

// Len returns the number of buckets.
func (ts *TimeSeries) Len() int { return len(ts.buckets) }

// At returns the accumulated value of bucket i.
func (ts *TimeSeries) At(i int) float64 {
	if i < 0 || i >= len(ts.buckets) {
		return 0
	}
	return ts.buckets[i]
}

// BucketStart returns the start time in seconds of bucket i.
func (ts *TimeSeries) BucketStart(i int) float64 { return float64(i) * ts.interval }

// Scatter collects (x, y) points and fits y = a + b·x by least squares, the
// summary used for the Figure 4 drop-rate comparison ("the gray-dashed line
// has a slope of 1.0").
type Scatter struct {
	xs, ys []float64
}

// Add appends one point.
func (s *Scatter) Add(x, y float64) {
	s.xs = append(s.xs, x)
	s.ys = append(s.ys, y)
}

// N returns the number of points.
func (s *Scatter) N() int { return len(s.xs) }

// Point returns the i-th point.
func (s *Scatter) Point(i int) (x, y float64) { return s.xs[i], s.ys[i] }

// Fit returns the least-squares intercept and slope. With fewer than two
// points it returns (0, 0).
func (s *Scatter) Fit() (intercept, slope float64) {
	n := float64(len(s.xs))
	if n < 2 {
		return 0, 0
	}
	var sx, sy, sxx, sxy float64
	for i := range s.xs {
		sx += s.xs[i]
		sy += s.ys[i]
		sxx += s.xs[i] * s.xs[i]
		sxy += s.xs[i] * s.ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return sy / n, 0
	}
	slope = (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n
	return intercept, slope
}

// Correlation returns the Pearson correlation of the points (0 with <2
// points or zero variance).
func (s *Scatter) Correlation() float64 {
	n := float64(len(s.xs))
	if n < 2 {
		return 0
	}
	var sx, sy float64
	for i := range s.xs {
		sx += s.xs[i]
		sy += s.ys[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range s.xs {
		dx, dy := s.xs[i]-mx, s.ys[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}
