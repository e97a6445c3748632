package experiments

import (
	"fmt"
	"time"

	"bitmapfilter/internal/attack"
	"bitmapfilter/internal/core"
	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/stats"
)

// WormConfig parameterizes the worm-containment experiment (E13): the same
// epidemic hits a protected and an unprotected client network and we count
// inside infections and attack packets delivered.
type WormConfig struct {
	Seed uint64
	// VulnerableHosts is the number of vulnerable hosts per client
	// network.
	VulnerableHosts int
	// Epidemic parameters (see attack.WormConfig).
	ScanRate           float64
	ExternalVulnerable int
	ExternalInfected0  int
	AddressSpace       float64
	Duration           time.Duration
}

// DefaultWormConfig is a compressed epidemic that saturates within
// simulated minutes.
func DefaultWormConfig() WormConfig {
	return WormConfig{
		Seed:               1,
		VulnerableHosts:    20,
		ScanRate:           40,
		ExternalVulnerable: 20000,
		ExternalInfected0:  10,
		AddressSpace:       1 << 24,
		Duration:           8 * time.Minute,
	}
}

// WormOutcome is the result for one network.
type WormOutcome struct {
	Protected        bool
	ProbesArrived    uint64
	ProbesDelivered  uint64
	InsideInfected   int
	OutboundScans    uint64 // scans leaving the network from insiders
	InfectedSeries   *stats.TimeSeries
	ExternalInfected float64
}

// WormResult compares protected and unprotected networks under the same
// epidemic.
type WormResult struct {
	Unprotected WormOutcome
	Protected   WormOutcome
}

// RunWorm executes the comparison. Each run replays an identical epidemic
// (same seed); only the filter differs.
func RunWorm(cfg WormConfig) (WormResult, error) {
	runOne := func(protected bool) (WormOutcome, error) {
		subnets := []packet.Prefix{
			packet.PrefixFrom(packet.AddrFrom4(10, 10, 0, 0), 24),
		}
		var filter filtering.PacketFilter
		if protected {
			f, err := core.New(
				core.WithOrder(18), core.WithVectors(4), core.WithHashes(3),
				core.WithRotateEvery(5*time.Second), core.WithSeed(cfg.Seed),
			)
			if err != nil {
				return WormOutcome{}, err
			}
			filter = f
		}

		vulnerable := make([]packet.Addr, 0, cfg.VulnerableHosts)
		for i := 0; i < cfg.VulnerableHosts; i++ {
			vulnerable = append(vulnerable, subnets[0].Nth(uint64(10+i)))
		}

		worm, err := attack.NewWorm(attack.WormConfig{
			Seed:               cfg.Seed,
			ScanRate:           cfg.ScanRate,
			ExternalVulnerable: cfg.ExternalVulnerable,
			ExternalInfected0:  cfg.ExternalInfected0,
			VulnerablePort:     445,
			Subnets:            subnets,
			InsideVulnerable:   vulnerable,
			Duration:           cfg.Duration,
			AddressSpace:       cfg.AddressSpace,
			Step:               time.Second,
		})
		if err != nil {
			return WormOutcome{}, err
		}

		out := WormOutcome{
			Protected: protected,
			InfectedSeries: stats.MustNewTimeSeries(
				10, int(cfg.Duration.Seconds()/10)+1),
		}
		for {
			pkt, ok := worm.Next()
			if !ok {
				break
			}
			// The stream is time-ordered; an insider's outbound scan
			// marks the bitmap like any outgoing packet.
			v := filtering.Pass
			if filter != nil {
				v = filter.Process(pkt)
			}
			if pkt.Dir == packet.Incoming {
				out.ProbesArrived++
				if v == filtering.Pass {
					out.ProbesDelivered++
					worm.Deliver(pkt)
				}
			} else {
				out.OutboundScans++
			}
			// Record the running inside-infected level: the series
			// accumulates, so add only the delta above what the
			// bucket already holds.
			idx := int(pkt.Time.Seconds() / 10)
			if idx < out.InfectedSeries.Len() {
				cur := out.InfectedSeries.At(idx)
				if lvl := float64(worm.InsideInfected()); lvl > cur {
					out.InfectedSeries.Add(pkt.Time.Seconds(), lvl-cur)
				}
			}
		}
		out.InsideInfected = worm.InsideInfected()
		out.ExternalInfected = worm.ExternalInfected()
		return out, nil
	}

	unprotected, err := runOne(false)
	if err != nil {
		return WormResult{}, fmt.Errorf("worm: %w", err)
	}
	protected, err := runOne(true)
	if err != nil {
		return WormResult{}, fmt.Errorf("worm: %w", err)
	}
	return WormResult{Unprotected: unprotected, Protected: protected}, nil
}

// Format renders the comparison.
func (r WormResult) Format() string {
	t := newTable(30, 14, 14)
	t.row("worm containment (E13)", "unprotected", "bitmap filter")
	t.line()
	t.row("probes arriving at edge",
		fmt.Sprintf("%d", r.Unprotected.ProbesArrived),
		fmt.Sprintf("%d", r.Protected.ProbesArrived))
	t.row("probes delivered inside",
		fmt.Sprintf("%d", r.Unprotected.ProbesDelivered),
		fmt.Sprintf("%d", r.Protected.ProbesDelivered))
	t.row("inside hosts infected",
		fmt.Sprintf("%d", r.Unprotected.InsideInfected),
		fmt.Sprintf("%d", r.Protected.InsideInfected))
	t.row("outbound worm scans",
		fmt.Sprintf("%d", r.Unprotected.OutboundScans),
		fmt.Sprintf("%d", r.Protected.OutboundScans))
	t.row("external infected (end)",
		fmt.Sprintf("%.0f", r.Unprotected.ExternalInfected),
		fmt.Sprintf("%.0f", r.Protected.ExternalInfected))
	return t.String()
}
