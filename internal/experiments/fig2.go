package experiments

import (
	"fmt"
	"time"

	"bitmapfilter/internal/delaymeter"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/stats"
	"bitmapfilter/internal/trafficgen"
)

// Fig2Result reproduces Figure 2 of the paper: the traffic characteristics
// of the client-network trace.
type Fig2Result struct {
	// Connection lifetime statistics (Figure 2-a). Lifetimes are
	// measured exactly as §3.2 describes: "from the appearance of the
	// first TCP-SYN packet to the appearance of a TCP-FIN or TCP-RST
	// packet".
	Connections      uint64
	LifetimeQ50      float64 // seconds
	LifetimeQ90      float64
	LifetimeQ95      float64
	LifetimeOver515s float64 // fraction
	LifetimeHist     *stats.Histogram

	// Out-in packet delay statistics (Figures 2-b and 2-c), measured
	// with the §3.2 tracker at T_e = 600 s.
	DelaysMeasured uint64
	DelayQ50       float64 // seconds
	DelayQ95       float64
	DelayQ99       float64
	DelayHist      *stats.Histogram // 1-second bins for peak structure
	DelayPeaks     []int            // peak positions (seconds) beyond 20 s

	// Aggregate trace statistics (the §3.2 prose numbers).
	Packets     uint64
	TCPFraction float64
	AvgPktBytes float64
	AvgPktRate  float64 // packets per second
}

// LifetimeTracker measures TCP connection lifetimes from a packet stream
// per the §3.2 definition: "from the appearance of the first TCP-SYN
// packet to the appearance of a TCP-FIN or TCP-RST packet". It is exported
// so `bfexp replay` can compute Figure 2 statistics over arbitrary captures.
type LifetimeTracker struct {
	open   map[packet.Tuple]time.Duration // outgoing tuple -> first SYN time
	sample *stats.Sample
	hist   *stats.Histogram
	count  uint64
}

// NewLifetimeTracker returns an empty tracker.
func NewLifetimeTracker() *LifetimeTracker {
	return &LifetimeTracker{
		open:   make(map[packet.Tuple]time.Duration, 1<<12),
		sample: &stats.Sample{},
		hist:   stats.MustNewHistogram(5, 240), // 5 s bins to 1200 s
	}
}

// Count returns the number of completed connections measured.
func (l *LifetimeTracker) Count() uint64 { return l.count }

// Quantile returns the q-quantile of measured lifetimes in seconds.
func (l *LifetimeTracker) Quantile(q float64) float64 { return l.sample.Quantile(q) }

// FractionOver returns the fraction of lifetimes exceeding sec seconds.
func (l *LifetimeTracker) FractionOver(sec float64) float64 {
	return 1 - l.sample.CDFAt(sec)
}

// Observe feeds one packet to the tracker.
func (l *LifetimeTracker) Observe(pkt packet.Packet) {
	if pkt.Tuple.Proto != packet.TCP {
		return
	}
	// Canonicalize to the outgoing orientation.
	key := pkt.Tuple
	if pkt.Dir == packet.Incoming {
		key = key.Reverse()
	}
	switch {
	case pkt.Flags.Has(packet.SYN) && !pkt.Flags.Has(packet.ACK) && pkt.Dir == packet.Outgoing:
		if _, exists := l.open[key]; !exists {
			l.open[key] = pkt.Time
		}
	case pkt.Flags&(packet.FIN|packet.RST) != 0:
		start, exists := l.open[key]
		if !exists {
			return
		}
		delete(l.open, key)
		life := (pkt.Time - start).Seconds()
		l.sample.Add(life)
		l.hist.Add(life)
		l.count++
	}
}

// RunFig2 generates the calibrated trace and measures the Figure 2
// statistics from the packet stream (not from the generator's internals,
// so the measurement procedure itself is exercised).
//
// Lifetime percentiles are right-censored by the trace window (a session
// longer than the remaining trace never emits its FIN), so the trace must
// be long relative to the 360 s lifetime q95 — exactly why the paper used
// a 6-hour capture. RunFig2 therefore stretches short scales to at least
// an hour, trading session rate to keep the packet volume similar.
func RunFig2(scale Scale) (Fig2Result, error) {
	const minDuration = time.Hour
	if scale.Duration < minDuration {
		ratio := float64(minDuration) / float64(scale.Duration)
		scale.ConnRate /= ratio
		scale.Duration = minDuration
	}
	gen, err := trafficgen.NewGenerator(scale.TraceConfig())
	if err != nil {
		return Fig2Result{}, fmt.Errorf("fig2: %w", err)
	}

	lives := NewLifetimeTracker()
	meter := delaymeter.MustNew(delaymeter.DefaultExpiry)
	delaySample := &stats.Sample{}
	delayHist := stats.MustNewHistogram(1, 600)

	var lastTime time.Duration
	gen.Drain(func(pkt packet.Packet) {
		lives.Observe(pkt)
		if d, ok := meter.Observe(pkt); ok {
			sec := d.Seconds()
			delaySample.Add(sec)
			delayHist.Add(sec)
		}
		lastTime = pkt.Time
	})

	tot := gen.Totals()
	res := Fig2Result{
		Connections:      lives.count,
		LifetimeQ50:      lives.sample.Quantile(0.50),
		LifetimeQ90:      lives.sample.Quantile(0.90),
		LifetimeQ95:      lives.sample.Quantile(0.95),
		LifetimeOver515s: 1 - lives.sample.CDFAt(515),
		LifetimeHist:     lives.hist,
		DelaysMeasured:   uint64(delaySample.N()),
		DelayQ50:         delaySample.Quantile(0.50),
		DelayQ95:         delaySample.Quantile(0.95),
		DelayQ99:         delaySample.Quantile(0.99),
		DelayHist:        delayHist,
		Packets:          tot.Packets,
		TCPFraction:      float64(tot.TCPPackets) / float64(tot.Packets),
		AvgPktBytes:      float64(tot.Bytes) / float64(tot.Packets),
	}
	if lastTime > 0 {
		res.AvgPktRate = float64(tot.Packets) / lastTime.Seconds()
	}
	// Locate histogram peaks beyond 20 s (the Figure 2-b port-reuse /
	// server-timeout structure). The peaks sit on a near-empty tail, so
	// a small absolute threshold suffices (Figure 2-b is log-scale for
	// the same reason).
	minCount := res.DelaysMeasured / 50000
	if minCount < 5 {
		minCount = 5
	}
	for _, bin := range res.DelayHist.Peaks(minCount) {
		if bin > 20 {
			res.DelayPeaks = append(res.DelayPeaks, bin)
		}
	}
	return res, nil
}

// Format renders the result next to the paper's published numbers.
func (r Fig2Result) Format() string {
	t := newTable(34, 14, 14)
	t.row("Figure 2: trace characteristics", "paper", "measured")
	t.line()
	t.row("TCP packet fraction", "96.25%", pct(r.TCPFraction))
	t.row("avg packet size (B)", "720", fmt.Sprintf("%.0f", r.AvgPktBytes))
	t.row("connections measured", "-", fmt.Sprintf("%d", r.Connections))
	t.row("lifetime q90 (s)  [2-a]", "76", fmt.Sprintf("%.1f", r.LifetimeQ90))
	t.row("lifetime q95 (s)  [2-a]", "360", fmt.Sprintf("%.1f", r.LifetimeQ95))
	t.row("P(lifetime>515s)  [2-a]", "<1%", pct(r.LifetimeOver515s))
	t.row("out-in delays measured", "-", fmt.Sprintf("%d", r.DelaysMeasured))
	t.row("delay q95 (s)     [2-c]", "0.8", fmt.Sprintf("%.2f", r.DelayQ95))
	t.row("delay q99 (s)     [2-c]", "2.8", fmt.Sprintf("%.2f", r.DelayQ99))
	t.row("delay peaks >20s  [2-b]", "30/60s multiples", fmt.Sprintf("%v", r.DelayPeaks))
	return t.String()
}
