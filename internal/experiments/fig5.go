package experiments

import (
	"fmt"
	"time"

	"bitmapfilter/internal/attack"
	"bitmapfilter/internal/core"
	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/stats"
	"bitmapfilter/internal/trafficgen"
)

// Fig5Config parameterizes the attack-mix experiment of §4.3/Figure 5:
// random scan packets are mixed into the benign trace partway through, and
// the bitmap filter's attack-filtering rate is measured.
type Fig5Config struct {
	Scale Scale
	// AttackStartFraction is where in the trace the attack begins
	// (paper: 12000 s of 21600 s ≈ 0.55).
	AttackStartFraction float64
	// AttackRateMultiplier scales the attack rate relative to the
	// benign packet rate (paper: 500 K pps ≈ 20× the trace rate).
	AttackRateMultiplier float64
	// Order..RotateEvery configure the bitmap. The paper's {4×20}
	// filter faces ~15 K active connections; at reduced trace scale the
	// default order keeps utilization (and thus the penetration rate)
	// in the same regime.
	Order       uint
	Vectors     int
	Hashes      int
	RotateEvery time.Duration
	// IntervalSec buckets the Figure 5-a time series.
	IntervalSec float64
}

// DefaultFig5Config returns the paper's setup on a 5-minute trace at 30
// sessions/s, the scale EXPERIMENTS.md E7–E8 records.
func DefaultFig5Config() Fig5Config {
	return Fig5Config{
		Scale:                Scale{Duration: 5 * time.Minute, ConnRate: 30, Seed: 1},
		AttackStartFraction:  0.55,
		AttackRateMultiplier: 20,
		Order:                20,
		Vectors:              4,
		Hashes:               3,
		RotateEvery:          5 * time.Second,
		IntervalSec:          10,
	}
}

// Fig5Result holds the attack-mix outcome.
type Fig5Result struct {
	// FilterRate is the fraction of attack packets dropped (paper:
	// 99.983% on average).
	FilterRate float64
	// AttackPackets and Penetrated count ground-truth attack traffic.
	AttackPackets uint64
	Penetrated    uint64
	// NormalInDropped is the benign incoming drop rate during the
	// attack (should stay near the Figure 4 rate).
	NormalInDropped float64
	// Time series for Figure 5-a: benign incoming, attack, and
	// penetrated+passed-benign ("the black line fits the border of the
	// light-gray area").
	Normal, Attack, Passed *stats.TimeSeries
	// AttackStart is when the attack began.
	AttackStart time.Duration
}

// RunFig5 executes the experiment. Attack packets are tracked by origin
// (not by inspection), exactly as the paper "verified whether [each attack
// packet] penetrates the bitmap filter or not".
func RunFig5(cfg Fig5Config) (Fig5Result, error) {
	traceCfg := cfg.Scale.TraceConfig()
	gen, err := trafficgen.NewGenerator(traceCfg)
	if err != nil {
		return Fig5Result{}, fmt.Errorf("fig5: %w", err)
	}

	// Estimate the benign packet rate to size the attack (the paper's
	// 500 K pps is "about 20 times faster than the normal traffic
	// packet rate"). A quick probe run of the same generator measures
	// the rate without consuming the main stream.
	probe, err := trafficgen.NewGenerator(traceCfg)
	if err != nil {
		return Fig5Result{}, fmt.Errorf("fig5: %w", err)
	}
	probeWindow := traceCfg.Duration / 10
	var probePkts uint64
	for {
		pkt, ok := probe.Next()
		if !ok || pkt.Time > probeWindow {
			break
		}
		probePkts++
	}
	benignRate := float64(probePkts) / probeWindow.Seconds()

	start := time.Duration(cfg.AttackStartFraction * float64(traceCfg.Duration))
	scan, err := attack.NewRandomScan(attack.RandomScanConfig{
		Seed:     cfg.Scale.Seed + 1,
		Rate:     benignRate * cfg.AttackRateMultiplier,
		Start:    start,
		Duration: traceCfg.Duration - start,
		Subnets:  traceCfg.Subnets,
	})
	if err != nil {
		return Fig5Result{}, fmt.Errorf("fig5: %w", err)
	}

	bitmap, err := core.New(
		core.WithOrder(cfg.Order),
		core.WithVectors(cfg.Vectors),
		core.WithHashes(cfg.Hashes),
		core.WithRotateEvery(cfg.RotateEvery),
		core.WithSeed(cfg.Scale.Seed),
	)
	if err != nil {
		return Fig5Result{}, fmt.Errorf("fig5: %w", err)
	}

	intervals := int(traceCfg.Duration.Seconds()/cfg.IntervalSec) + 1
	res := Fig5Result{
		Normal:      stats.MustNewTimeSeries(cfg.IntervalSec, intervals),
		Attack:      stats.MustNewTimeSeries(cfg.IntervalSec, intervals),
		Passed:      stats.MustNewTimeSeries(cfg.IntervalSec, intervals),
		AttackStart: start,
	}

	var benignIn, benignDropped uint64

	// Manual two-stream merge so each packet keeps its ground-truth
	// origin.
	benignPkt, benignOK := gen.Next()
	attackPkt, attackOK := scan.Next()
	for benignOK || attackOK {
		isAttack := attackOK && (!benignOK || attackPkt.Time < benignPkt.Time)
		var pkt packet.Packet
		if isAttack {
			pkt = attackPkt
			attackPkt, attackOK = scan.Next()
		} else {
			pkt = benignPkt
			benignPkt, benignOK = gen.Next()
		}

		v := bitmap.Process(pkt)
		sec := pkt.Time.Seconds()
		if pkt.Dir != packet.Incoming {
			continue
		}
		if isAttack {
			res.AttackPackets++
			res.Attack.Add(sec, 1)
			if v == filtering.Pass {
				res.Penetrated++
				res.Passed.Add(sec, 1)
			}
			continue
		}
		benignIn++
		res.Normal.Add(sec, 1)
		if v == filtering.Pass {
			res.Passed.Add(sec, 1)
		} else {
			benignDropped++
		}
	}

	if res.AttackPackets > 0 {
		res.FilterRate = 1 - float64(res.Penetrated)/float64(res.AttackPackets)
	}
	if benignIn > 0 {
		res.NormalInDropped = float64(benignDropped) / float64(benignIn)
	}
	return res, nil
}

// Format renders the result next to the paper's numbers.
func (r Fig5Result) Format() string {
	t := newTable(34, 14, 14)
	t.row("Figure 5: attack filtering", "paper", "measured")
	t.line()
	t.row("attack packets", "-", fmt.Sprintf("%d", r.AttackPackets))
	t.row("penetrated", "-", fmt.Sprintf("%d", r.Penetrated))
	t.row("attack filtering rate [5-b]", "99.983%", pct(r.FilterRate))
	t.row("benign drop rate in mix", "~1.5%", pct(r.NormalInDropped))
	t.row("attack start (s)", "12000/21600", fmt.Sprintf("%.0f", r.AttackStart.Seconds()))
	return t.String()
}
