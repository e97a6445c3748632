package experiments

import (
	"strings"
	"testing"
	"time"
)

func TestBandwidthAttackMitigation(t *testing.T) {
	cfg := DefaultBandwidthConfig()
	cfg.Phase = 15 * time.Second
	res, err := RunBandwidth(cfg)
	if err != nil {
		t.Fatal(err)
	}

	un, plain, apd := res.Unfiltered, res.Plain, res.APD

	// Identical offered traffic in all three runs.
	if un.BenignSent != plain.BenignSent || plain.BenignSent != apd.BenignSent {
		t.Fatalf("benign offered load differs: %d/%d/%d",
			un.BenignSent, plain.BenignSent, apd.BenignSent)
	}
	if un.FloodSent == 0 {
		t.Fatal("no flood traffic")
	}

	// Unfiltered: the flood congests the bottleneck and benign goodput
	// suffers.
	if un.TailDropped == 0 {
		t.Error("unfiltered link did not congest")
	}
	if un.BenignDelivered >= un.BenignSent {
		t.Errorf("unfiltered delivered all %d benign replies despite flood", un.BenignDelivered)
	}
	if un.FloodDelivered == 0 {
		t.Error("unfiltered delivered no flood packets (flood ineffective)")
	}

	// Plain bitmap: full benign goodput, zero flood, zero pushes (the
	// strict positive-listing cost §5.3 motivates APD with).
	if plain.BenignDelivered != plain.BenignSent {
		t.Errorf("plain bitmap benign %d/%d", plain.BenignDelivered, plain.BenignSent)
	}
	if plain.FloodDelivered != 0 {
		t.Errorf("plain bitmap delivered %d flood packets", plain.FloodDelivered)
	}
	if plain.UnmatchedDelivered != 0 {
		t.Errorf("plain bitmap delivered %d unmatched pushes", plain.UnmatchedDelivered)
	}
	if plain.TailDropped != 0 {
		t.Errorf("plain bitmap link congested: %d tail drops", plain.TailDropped)
	}

	// APD: high benign goodput, AND server pushes get through during the
	// calm phase, while the flood is still mostly shed once utilization
	// rises. U_b counts only bytes the filter admits (dropped packets
	// never reach the downstream link), so during the flood the
	// indicator equilibrates below 1 and keeps admitting a trickle that
	// contends with benign replies at the bottleneck — a few benign
	// losses are the honest price of the adaptive admission.
	if float64(apd.BenignDelivered) < 0.90*float64(apd.BenignSent) {
		t.Errorf("APD benign %d/%d", apd.BenignDelivered, apd.BenignSent)
	}
	if apd.UnmatchedDelivered == 0 {
		t.Error("APD delivered no server pushes; adaptive admission broken")
	}
	if apd.UnmatchedDelivered <= plain.UnmatchedDelivered {
		t.Error("APD not more permissive than plain bitmap for unmatched benign traffic")
	}
	// During the flood the bandwidth indicator saturates: the vast
	// majority of flood packets must be dropped.
	floodThrough := float64(apd.FloodDelivered) / float64(apd.FloodSent)
	if floodThrough > 0.10 {
		t.Errorf("APD passed %.1f%% of the flood", floodThrough*100)
	}
	// And benign goodput must beat the unfiltered run.
	if apd.BenignDelivered <= un.BenignDelivered {
		t.Errorf("APD benign %d not better than unfiltered %d",
			apd.BenignDelivered, un.BenignDelivered)
	}

	if !strings.Contains(res.Format(), "bandwidth attack") {
		t.Error("Format missing header")
	}
}

// TestBottleneckAdmit: on a 1 Mbit/s link a 1250 B packet holds the wire for
// len·8/bps = 10 ms; a packet that finds more than 50 ms queued ahead of it
// is dropped and takes no wire time; an idle link restarts at the arrival.
func TestBottleneckAdmit(t *testing.T) {
	const ms = time.Millisecond
	type arrival struct {
		at    time.Duration
		admit bool
	}
	for _, tc := range []struct {
		name      string
		arrivals  []arrival
		wantFree  time.Duration
		wantDrops uint64
	}{
		{"wire_time", []arrival{{0, true}}, 10 * ms, 0},
		{"backlog_bound", []arrival{
			{0, true}, {0, true}, {0, true}, {0, true}, {0, true}, {0, true}, // backlog 0…50 ms
			{0, false}, {0, false}, // backlog 60 ms
		}, 60 * ms, 2},
		{"drop_takes_no_wire", []arrival{
			{0, true}, {0, true}, {0, true}, {0, true}, {0, true}, {0, true},
			{0, false},
			{10 * ms, true}, // backlog 50 ms, not 60
		}, 70 * ms, 1},
		{"idle_restarts_at_now", []arrival{{0, true}, {100 * ms, true}}, 110 * ms, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			link := bottleneck{bps: 1e6, maxBacklog: 50 * ms}
			for i, a := range tc.arrivals {
				if got := link.admit(a.at, 1250); got != a.admit {
					t.Errorf("arrival %d at %v: admit = %v, want %v", i, a.at, got, a.admit)
				}
			}
			if link.nextFree != tc.wantFree || link.tailDrops != tc.wantDrops {
				t.Errorf("wire idle at %v with %d tail drops, want %v and %d",
					link.nextFree, link.tailDrops, tc.wantFree, tc.wantDrops)
			}
		})
	}
}
