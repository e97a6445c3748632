package experiments

import (
	"fmt"
	"time"

	"bitmapfilter/internal/core"
	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/flowtable"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/stats"
	"bitmapfilter/internal/trafficgen"
)

// Fig4Config parameterizes the drop-rate comparison of Figure 4: the
// benign trace is run through both an SPI filter (240 s idle timeout, the
// Windows TIME_WAIT default) and the paper's {4×20} bitmap filter, and
// per-interval drop rates are compared.
type Fig4Config struct {
	Scale Scale
	// IntervalSec is the width of one scatter point in seconds.
	IntervalSec float64
	// Order..RotateEvery configure the bitmap (paper: 20/4/3/5 s).
	Order       uint
	Vectors     int
	Hashes      int
	RotateEvery time.Duration
	// SPITimeout is the SPI idle timeout (paper: 240 s).
	SPITimeout time.Duration
}

// DefaultFig4Config returns the paper's configuration at default scale.
func DefaultFig4Config() Fig4Config {
	return Fig4Config{
		Scale:       DefaultScale(),
		IntervalSec: 30,
		Order:       20,
		Vectors:     4,
		Hashes:      3,
		RotateEvery: 5 * time.Second,
		SPITimeout:  240 * time.Second,
	}
}

// Fig4Result holds the drop-rate comparison.
type Fig4Result struct {
	// SPIDropRate and BitmapDropRate are the overall incoming drop
	// fractions (paper: 1.56% and 1.51%).
	SPIDropRate    float64
	BitmapDropRate float64
	// Scatter holds one (SPI, bitmap) drop-rate point per interval;
	// Slope and Correlation summarize it (paper: the points follow a
	// line of slope 1.0).
	Scatter     *stats.Scatter
	Slope       float64
	Correlation float64
	Intervals   int
	Packets     uint64
}

// RunFig4 executes the comparison.
func RunFig4(cfg Fig4Config) (Fig4Result, error) {
	gen, err := trafficgen.NewGenerator(cfg.Scale.TraceConfig())
	if err != nil {
		return Fig4Result{}, fmt.Errorf("fig4: %w", err)
	}
	bitmap, err := core.New(
		core.WithOrder(cfg.Order),
		core.WithVectors(cfg.Vectors),
		core.WithHashes(cfg.Hashes),
		core.WithRotateEvery(cfg.RotateEvery),
		core.WithSeed(cfg.Scale.Seed),
	)
	if err != nil {
		return Fig4Result{}, fmt.Errorf("fig4: %w", err)
	}
	spi := filtering.AsBatch(flowtable.NewHashList(flowtable.WithIdleTimeout(cfg.SPITimeout)))

	type bucket struct {
		spiIn, spiDrop       uint64
		bitmapIn, bitmapDrop uint64
	}
	intervals := int(cfg.Scale.Duration.Seconds()/cfg.IntervalSec) + 1
	buckets := make([]bucket, intervals)

	// Both filters are driven through the batch data plane (the SPI table
	// via the generic fallback) with reused verdict buffers, so the whole
	// trace runs allocation-free past generation.
	var spiV, bitmapV []filtering.Verdict
	gen.DrainBatches(trafficgen.DefaultBatchSize, func(pkts []packet.Packet) {
		spiV = spi.ProcessBatchInto(pkts, spiV)
		bitmapV = bitmap.ProcessBatchInto(pkts, bitmapV)
		for i := range pkts {
			if pkts[i].Dir != packet.Incoming {
				continue
			}
			b := &buckets[int(pkts[i].Time.Seconds()/cfg.IntervalSec)]
			b.spiIn++
			b.bitmapIn++
			if spiV[i] == filtering.Drop {
				b.spiDrop++
			}
			if bitmapV[i] == filtering.Drop {
				b.bitmapDrop++
			}
		}
	})

	res := Fig4Result{
		Scatter: &stats.Scatter{},
		Packets: gen.Totals().Packets,
	}
	for _, b := range buckets {
		if b.spiIn == 0 {
			continue
		}
		res.Intervals++
		res.Scatter.Add(
			float64(b.spiDrop)/float64(b.spiIn),
			float64(b.bitmapDrop)/float64(b.bitmapIn),
		)
	}
	res.SPIDropRate = spi.Counters().DropRate()
	res.BitmapDropRate = bitmap.Counters().DropRate()
	_, res.Slope = res.Scatter.Fit()
	res.Correlation = res.Scatter.Correlation()
	return res, nil
}

// Format renders the result next to the paper's numbers.
func (r Fig4Result) Format() string {
	t := newTable(34, 14, 14)
	t.row("Figure 4: benign drop rates", "paper", "measured")
	t.line()
	t.row("SPI filter drop rate", "1.56%", pct(r.SPIDropRate))
	t.row("bitmap filter drop rate", "1.51%", pct(r.BitmapDropRate))
	t.row("scatter slope", "1.0", fmt.Sprintf("%.3f", r.Slope))
	t.row("scatter correlation", "~1", fmt.Sprintf("%.3f", r.Correlation))
	t.row("intervals", "-", fmt.Sprintf("%d", r.Intervals))
	t.row("packets", "-", fmt.Sprintf("%d", r.Packets))
	return t.String()
}
