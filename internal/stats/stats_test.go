package stats

import (
	"errors"
	"math"
	"testing"

	"bitmapfilter/internal/xrand"
)

func TestSampleQuantiles(t *testing.T) {
	var s Sample
	if s.Quantile(0.5) != 0 || s.CDFAt(1) != 0 || s.Max() != 0 {
		t.Error("empty sample not neutral")
	}
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if s.N() != 100 {
		t.Errorf("N = %d", s.N())
	}
	if got := s.Quantile(0); got != 1 {
		t.Errorf("Q0 = %v", got)
	}
	if got := s.Quantile(1); got != 100 {
		t.Errorf("Q1 = %v", got)
	}
	if got := s.Quantile(0.5); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("median = %v", got)
	}
	if got := s.Quantile(0.95); math.Abs(got-95.05) > 1e-9 {
		t.Errorf("p95 = %v", got)
	}
	if got := s.Max(); got != 100 {
		t.Errorf("Max = %v", got)
	}
}

func TestSampleCDF(t *testing.T) {
	var s Sample
	for i := 1; i <= 10; i++ {
		s.Add(float64(i))
	}
	if got := s.CDFAt(5); got != 0.5 {
		t.Errorf("CDF(5) = %v", got)
	}
	if got := s.CDFAt(0.5); got != 0 {
		t.Errorf("CDF(0.5) = %v", got)
	}
	if got := s.CDFAt(10); got != 1 {
		t.Errorf("CDF(10) = %v", got)
	}
	if got := s.CDFAt(4.5); got != 0.4 {
		t.Errorf("CDF(4.5) = %v", got)
	}
}

func TestSampleAddAfterQuantile(t *testing.T) {
	// Adding after a quantile query must re-sort correctly.
	var s Sample
	s.Add(5)
	s.Add(1)
	_ = s.Quantile(0.5)
	s.Add(3)
	if got := s.Quantile(0.5); got != 3 {
		t.Errorf("median after late add = %v", got)
	}
}

func TestHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(0, 10); !errors.Is(err, ErrArgs) {
		t.Error("binWidth 0 accepted")
	}
	if _, err := NewHistogram(1, 0); !errors.Is(err, ErrArgs) {
		t.Error("bins 0 accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNewHistogram did not panic")
		}
	}()
	MustNewHistogram(0, 0)
}

func TestHistogramBinning(t *testing.T) {
	h := MustNewHistogram(10, 5) // bins [0,10) [10,20) ... [40,50)
	for _, x := range []float64{0, 9.99, 10, 25, 49.9, 50, 1000, -3} {
		h.Add(x)
	}
	if h.Count(0) != 2 {
		t.Errorf("bin0 = %d", h.Count(0))
	}
	if h.Count(1) != 1 {
		t.Errorf("bin1 = %d", h.Count(1))
	}
	if h.Count(2) != 1 {
		t.Errorf("bin2 = %d", h.Count(2))
	}
	if h.Count(4) != 1 {
		t.Errorf("bin4 = %d", h.Count(4))
	}
	if got := h.CDFAt(1e9); got != 6.0/8 { // 50 and 1000 count in the total, in no bin
		t.Errorf("CDFAt(1e9) = %v, want 6/8", got)
	}
	if h.Count(-1) != 0 || h.Count(99) != 0 {
		t.Error("out-of-range Count not zero")
	}
	if h.Bins() != 5 {
		t.Errorf("Bins = %d", h.Bins())
	}
	if h.BinStart(3) != 30 {
		t.Errorf("BinStart(3) = %v", h.BinStart(3))
	}
}

func TestHistogramCDF(t *testing.T) {
	h := MustNewHistogram(1, 100)
	for i := 0; i < 100; i++ {
		h.Add(float64(i) + 0.5)
	}
	if got := h.CDFAt(50); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("CDF(50) = %v", got)
	}
	if got := h.CDFAt(100); got != 1 {
		t.Errorf("CDF(100) = %v", got)
	}
	var empty Histogram
	if empty.CDFAt(1) != 0 {
		t.Error("empty CDF nonzero")
	}
}

func TestHistogramPeaks(t *testing.T) {
	h := MustNewHistogram(1, 10)
	// Build counts: 0 5 1 1 8 1 0 3 0 0 → peaks at 1, 4, 7.
	addN := func(bin int, n int) {
		for i := 0; i < n; i++ {
			h.Add(float64(bin))
		}
	}
	addN(1, 5)
	addN(2, 1)
	addN(3, 1)
	addN(4, 8)
	addN(5, 1)
	addN(7, 3)
	peaks := h.Peaks(2)
	want := []int{1, 4, 7}
	if len(peaks) != len(want) {
		t.Fatalf("peaks = %v, want %v", peaks, want)
	}
	for i := range want {
		if peaks[i] != want[i] {
			t.Errorf("peaks = %v, want %v", peaks, want)
		}
	}
	// Raising the threshold filters small peaks.
	if p := h.Peaks(4); len(p) != 2 {
		t.Errorf("Peaks(4) = %v", p)
	}
}

func TestTimeSeries(t *testing.T) {
	if _, err := NewTimeSeries(0, 5); !errors.Is(err, ErrArgs) {
		t.Error("interval 0 accepted")
	}
	if _, err := NewTimeSeries(1, 0); !errors.Is(err, ErrArgs) {
		t.Error("n 0 accepted")
	}
	ts := MustNewTimeSeries(10, 6) // 60 seconds in 10s buckets
	ts.Add(0, 1)
	ts.Add(9.99, 1)
	ts.Add(10, 5)
	ts.Add(59.9, 2)
	ts.Add(60, 100) // out of range: ignored
	ts.Add(-5, 100) // negative: ignored
	if ts.Len() != 6 {
		t.Errorf("Len = %d", ts.Len())
	}
	if ts.At(0) != 2 {
		t.Errorf("At(0) = %v", ts.At(0))
	}
	if ts.At(1) != 5 {
		t.Errorf("At(1) = %v", ts.At(1))
	}
	if ts.At(5) != 2 {
		t.Errorf("At(5) = %v", ts.At(5))
	}
	if ts.At(-1) != 0 || ts.At(9) != 0 {
		t.Error("out-of-range At not zero")
	}
	if ts.BucketStart(3) != 30 {
		t.Errorf("BucketStart(3) = %v", ts.BucketStart(3))
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNewTimeSeries did not panic")
		}
	}()
	MustNewTimeSeries(0, 0)
}

func TestScatterFitPerfectLine(t *testing.T) {
	var s Scatter
	for i := 0; i < 50; i++ {
		x := float64(i)
		s.Add(x, 3+2*x)
	}
	a, b := s.Fit()
	if math.Abs(a-3) > 1e-9 || math.Abs(b-2) > 1e-9 {
		t.Errorf("Fit = %v + %v x", a, b)
	}
	if c := s.Correlation(); math.Abs(c-1) > 1e-12 {
		t.Errorf("Correlation = %v", c)
	}
	if s.N() != 50 {
		t.Errorf("N = %d", s.N())
	}
	x, y := s.Point(10)
	if x != 10 || y != 23 {
		t.Errorf("Point(10) = %v,%v", x, y)
	}
}

func TestScatterFitNoisy(t *testing.T) {
	var s Scatter
	r := xrand.New(3)
	for i := 0; i < 5000; i++ {
		x := r.Float64() * 10
		s.Add(x, 1+0.5*x+0.01*r.Normal())
	}
	a, b := s.Fit()
	if math.Abs(a-1) > 0.01 || math.Abs(b-0.5) > 0.01 {
		t.Errorf("Fit = %v + %v x", a, b)
	}
	if c := s.Correlation(); c < 0.99 {
		t.Errorf("Correlation = %v", c)
	}
}

func TestScatterDegenerate(t *testing.T) {
	var s Scatter
	if a, b := s.Fit(); a != 0 || b != 0 {
		t.Error("empty Fit nonzero")
	}
	if s.Correlation() != 0 {
		t.Error("empty Correlation nonzero")
	}
	s.Add(1, 5)
	if a, b := s.Fit(); a != 0 || b != 0 {
		t.Error("single-point Fit nonzero")
	}
	// Vertical line: zero x-variance.
	s.Add(1, 7)
	if _, b := s.Fit(); b != 0 {
		t.Error("vertical line slope nonzero")
	}
	if s.Correlation() != 0 {
		t.Error("zero-variance Correlation nonzero")
	}
}
