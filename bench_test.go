// Benchmark harness: one benchmark per table and figure of the paper
// (DESIGN.md experiment index E1–E14) plus the ablation benches for the
// design choices DESIGN.md calls out. Figure-level benchmarks run the full
// experiment pipeline per iteration and attach the reproduced quantities
// as custom metrics, so `go test -bench` regenerates every reported row.
package bitmapfilter_test

import (
	"bytes"
	"testing"
	"time"

	"bitmapfilter"
	"bitmapfilter/internal/attack"
	"bitmapfilter/internal/experiments"
	"bitmapfilter/internal/flowtable"
	"bitmapfilter/internal/model"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/trafficgen"
	"bitmapfilter/internal/xrand"
)

// benchScale keeps per-iteration cost around a second.
func benchScale() experiments.Scale {
	return experiments.Scale{
		Duration: 2 * time.Minute,
		ConnRate: 25,
		Seed:     1,
	}
}

// E1–E3: Figure 2 (lifetime histogram, out-in delay histogram and CDF).
func BenchmarkFig2TraceCharacteristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig2(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.LifetimeQ90, "life_q90_s")
		b.ReportMetric(res.LifetimeQ95, "life_q95_s")
		b.ReportMetric(res.DelayQ95, "delay_q95_s")
		b.ReportMetric(res.DelayQ99, "delay_q99_s")
		b.ReportMetric(res.TCPFraction*100, "tcp_%")
	}
}

// E4: §4.1 capacity table (Equation 5).
func BenchmarkCapacityTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunCapacity()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].MaxConnections, "conns_p10")
		b.ReportMetric(res.Rows[1].MaxConnections, "conns_p5")
		b.ReportMetric(res.Rows[2].MaxConnections, "conns_p1")
		b.ReportMetric(float64(res.OptimalM), "m_star")
	}
}

// table1Workload builds paired outgoing/incoming packets over distinct
// tuples.
func table1Workload(n int, seed uint64) (outs, ins []packet.Packet) {
	r := xrand.New(seed)
	outs = make([]packet.Packet, n)
	ins = make([]packet.Packet, n)
	for i := range outs {
		tup := packet.Tuple{
			Src:     packet.AddrFrom4(10, 10, byte(i>>16), byte(i>>8)),
			Dst:     packet.Addr(r.Uint32() | 1),
			SrcPort: uint16(1024 + i%60000),
			DstPort: 80,
			Proto:   packet.TCP,
		}
		outs[i] = packet.Packet{Tuple: tup, Dir: packet.Outgoing, Flags: packet.ACK, Length: 60}
		ins[i] = packet.Packet{Tuple: tup.Reverse(), Dir: packet.Incoming, Flags: packet.ACK, Length: 60}
	}
	return outs, ins
}

// E5: Table 1 per-operation costs. One sub-benchmark per implementation
// and operation; memory is reported as a metric.
func BenchmarkTable1(b *testing.B) {
	const load = 1 << 18 // resident flows during lookups

	impls := []struct {
		name string
		mk   func() bitmapfilter.PacketFilter
	}{
		{name: "hashlist", mk: func() bitmapfilter.PacketFilter {
			return flowtable.NewHashList(flowtable.WithBuckets(load / 4))
		}},
		{name: "avl", mk: func() bitmapfilter.PacketFilter {
			return flowtable.NewAVLTable()
		}},
		{name: "bitmap", mk: func() bitmapfilter.PacketFilter {
			f, err := bitmapfilter.New(bitmapfilter.WithOrder(24))
			if err != nil {
				b.Fatal(err)
			}
			return f
		}},
	}

	outs, ins := table1Workload(load, 1)
	for _, impl := range impls {
		b.Run("insert/"+impl.name, func(b *testing.B) {
			f := impl.mk()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Process(outs[i&(load-1)])
			}
			b.ReportMetric(float64(f.MemoryBytes()), "state_bytes")
		})
		b.Run("lookup/"+impl.name, func(b *testing.B) {
			f := impl.mk()
			for i := range outs {
				f.Process(outs[i])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Process(ins[i&(load-1)])
			}
		})
	}

	// Garbage collection: the bitmap's "GC" is one vector reset; the SPI
	// tables traverse all state.
	b.Run("gc/bitmap-rotate", func(b *testing.B) {
		f, err := bitmapfilter.New(bitmapfilter.WithOrder(24))
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.Rotate()
		}
	})
	b.Run("gc/hashlist-sweep", func(b *testing.B) {
		f := flowtable.NewHashList(
			flowtable.WithBuckets(load/4),
			flowtable.WithGCInterval(time.Nanosecond),
		)
		for i := range outs {
			f.Process(outs[i])
		}
		b.ResetTimer()
		// Every AdvanceTo triggers a full sweep (interval 1ns).
		now := outs[load-1].Time
		for i := 0; i < b.N; i++ {
			now += 2 * time.Nanosecond
			f.AdvanceTo(now)
		}
	})
}

// E6: Figure 4 drop-rate comparison.
func BenchmarkFig4DropRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultFig4Config()
		cfg.Scale = benchScale()
		res, err := experiments.RunFig4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.SPIDropRate*100, "spi_drop_%")
		b.ReportMetric(res.BitmapDropRate*100, "bitmap_drop_%")
		b.ReportMetric(res.Slope, "slope")
	}
}

// E7–E8: Figure 5 attack mix and filtering rate.
func BenchmarkFig5Filtering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultFig5Config()
		cfg.Scale = benchScale()
		res, err := experiments.RunFig5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.FilterRate*100, "filter_rate_%")
		b.ReportMetric(float64(res.AttackPackets), "attack_pkts")
		b.ReportMetric(res.NormalInDropped*100, "benign_drop_%")
	}
}

// E9: §5.2 insider-attack utilization versus the analytic model.
func BenchmarkInsiderUtilization(b *testing.B) {
	cfg := experiments.DefaultInsiderConfig()
	cfg.Order = 16
	cfg.Rates = []float64{1000, 5000}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunInsider(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].MeasuredU, "U_at_1kpps")
		b.ReportMetric(res.Rows[0].ExactU, "U_model")
	}
}

// E10: §5.3 APD marking-policy comparison.
func BenchmarkAPDPolicy(b *testing.B) {
	cfg := experiments.DefaultAPDConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAPD(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.PlainFollowupAdmitted), "plain_admitted")
		b.ReportMetric(float64(res.APDFollowupAdmitted), "apd_admitted")
	}
}

// E10b: bottleneck-link bandwidth-attack comparison.
func BenchmarkBandwidthMitigation(b *testing.B) {
	cfg := experiments.DefaultBandwidthConfig()
	cfg.Phase = 15 * time.Second
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunBandwidth(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Unfiltered.BenignDelivered), "benign_open")
		b.ReportMetric(float64(res.APD.BenignDelivered), "benign_apd")
		b.ReportMetric(float64(res.APD.UnmatchedDelivered), "pushes_apd")
	}
}

// E14: §5.4 colluding-attacker sweep.
func BenchmarkCollusion(b *testing.B) {
	cfg := experiments.DefaultCollusionConfig()
	cfg.Scale = experiments.Scale{Duration: time.Minute, ConnRate: 20, Seed: 1}
	cfg.Lags = []time.Duration{time.Second, 30 * time.Second}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunCollusion(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].SuccessRate*100, "fresh_success_%")
		b.ReportMetric(res.Rows[1].SuccessRate*100, "stale_success_%")
	}
}

// E13: worm containment.
func BenchmarkWormContainment(b *testing.B) {
	cfg := experiments.DefaultWormConfig()
	cfg.Duration = 4 * time.Minute
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunWorm(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Unprotected.InsideInfected), "infected_open")
		b.ReportMetric(float64(res.Protected.InsideInfected), "infected_protected")
	}
}

// Ablation: hash count m around the paper's optimum m*=3 (DESIGN.md §5).
// Reports per-packet cost; penetration probability at fixed load comes
// from the model for context.
func BenchmarkAblationHashCount(b *testing.B) {
	const activeConns = 15000 // the paper's per-T_e load
	for _, m := range []int{1, 2, 3, 4, 6} {
		b.Run(benchName("m", m), func(b *testing.B) {
			f, err := bitmapfilter.New(bitmapfilter.WithHashes(m))
			if err != nil {
				b.Fatal(err)
			}
			outs, _ := table1Workload(1<<12, 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Process(outs[i&(1<<12-1)])
			}
			b.ReportMetric(model.Penetration(activeConns, m, 20)*100, "penetration_%")
		})
	}
}

// Ablation: splitting the same T_e = 20 s into different k×Δt products.
// More vectors cost more marking work per outgoing packet but tighten the
// expiry granularity.
func BenchmarkAblationRotation(b *testing.B) {
	splits := []struct {
		k  int
		dt time.Duration
	}{
		{k: 2, dt: 10 * time.Second},
		{k: 4, dt: 5 * time.Second},
		{k: 10, dt: 2 * time.Second},
	}
	for _, s := range splits {
		b.Run(benchName("k", s.k), func(b *testing.B) {
			f, err := bitmapfilter.New(
				bitmapfilter.WithVectors(s.k),
				bitmapfilter.WithRotateEvery(s.dt),
			)
			if err != nil {
				b.Fatal(err)
			}
			outs, _ := table1Workload(1<<12, 3)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Process(outs[i&(1<<12-1)])
			}
			b.ReportMetric(float64(f.MemoryBytes()), "state_bytes")
		})
	}
}

// Ablation: partial-tuple (paper) versus full-tuple hashing. Same cost,
// different compatibility; the benchmark reports the fraction of replies
// from a different remote port that each admits.
func BenchmarkAblationTupleFields(b *testing.B) {
	policies := []struct {
		name   string
		policy bitmapfilter.TuplePolicy
	}{
		{name: "partial", policy: bitmapfilter.PartialTuple},
		{name: "full", policy: bitmapfilter.FullTuple},
	}
	for _, p := range policies {
		b.Run(p.name, func(b *testing.B) {
			f, err := bitmapfilter.New(
				bitmapfilter.WithOrder(16),
				bitmapfilter.WithTuplePolicy(p.policy),
			)
			if err != nil {
				b.Fatal(err)
			}
			outs, ins := table1Workload(1<<12, 4)
			// Replies come back from a different remote port.
			for i := range ins {
				ins[i].Tuple.SrcPort = 8080
			}
			admitted := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx := i & (1<<12 - 1)
				f.Process(outs[idx])
				if f.Process(ins[idx]) == bitmapfilter.Pass {
					admitted++
				}
			}
			b.ReportMetric(float64(admitted)/float64(b.N)*100, "alt_port_admit_%")
		})
	}
}

// Ablation: marking all vectors (the paper's design) versus only the
// current vector. The simplification halves marking work but breaks
// continuity across rotations — the metric shows survivors after one
// rotation.
func BenchmarkAblationMarkPolicy(b *testing.B) {
	policies := []struct {
		name   string
		policy bitmapfilter.MarkPolicy
	}{
		{name: "mark-all", policy: bitmapfilter.MarkAllVectors},
		{name: "mark-current", policy: bitmapfilter.MarkCurrentOnly},
	}
	for _, p := range policies {
		b.Run(p.name, func(b *testing.B) {
			f, err := bitmapfilter.New(
				bitmapfilter.WithOrder(16),
				bitmapfilter.WithMarkPolicy(p.policy),
			)
			if err != nil {
				b.Fatal(err)
			}
			outs, ins := table1Workload(1<<12, 5)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Process(outs[i&(1<<12-1)])
			}
			b.StopTimer()
			// Survivors after one rotation.
			f.Rotate()
			survivors := 0
			for i := range ins {
				if f.WouldAdmit(ins[i].Tuple) {
					survivors++
				}
			}
			b.ReportMetric(float64(survivors)/float64(len(ins))*100, "rotation_survive_%")
		})
	}
}

// End-to-end throughput: the full calibrated trace through the paper's
// default filter (the packets/second a software deployment sustains).
func BenchmarkEndToEndTraceThroughput(b *testing.B) {
	cfg := trafficgen.DefaultConfig()
	cfg.Duration = 2 * time.Minute
	cfg.ConnRate = 25
	gen, err := trafficgen.NewGenerator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var pkts []packet.Packet
	gen.Drain(func(p packet.Packet) { pkts = append(pkts, p) })

	f, err := bitmapfilter.New()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Process(pkts[i%len(pkts)])
	}
}

// Attack-path throughput: pure random-scan traffic (every packet is a
// bitmap miss, the DoS-resilience hot path).
func BenchmarkAttackPathThroughput(b *testing.B) {
	scan, err := attack.NewRandomScan(attack.RandomScanConfig{
		Seed:     1,
		Rate:     1e6,
		Duration: time.Hour,
		Subnets:  trafficgen.CampusSubnets(),
	})
	if err != nil {
		b.Fatal(err)
	}
	pkts := make([]packet.Packet, 1<<14)
	for i := range pkts {
		p, ok := scan.Next()
		if !ok {
			b.Fatal("scan ended early")
		}
		pkts[i] = p
	}
	f, err := bitmapfilter.New()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Process(pkts[i&(1<<14-1)])
	}
}

// Snapshot persistence cost for the paper's default 512 KiB filter.
func BenchmarkSnapshotRoundTrip(b *testing.B) {
	f, err := bitmapfilter.New()
	if err != nil {
		b.Fatal(err)
	}
	outs, _ := table1Workload(1<<14, 7)
	for i := range outs {
		f.Process(outs[i])
	}
	var buf bytes.Buffer
	var snapBytes int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := f.WriteSnapshot(&buf); err != nil {
			b.Fatal(err)
		}
		snapBytes = buf.Len()
		if _, err := bitmapfilter.ReadSnapshot(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(snapBytes), "snapshot_bytes")
}

// batchWorkload interleaves outgoing packets and their replies into one
// mixed trace (all timestamps zero, so no rotations fire mid-benchmark).
func batchWorkload(n int, seed uint64) []packet.Packet {
	outs, ins := table1Workload(n/2, seed)
	pkts := make([]packet.Packet, 0, n)
	for i := range outs {
		pkts = append(pkts, outs[i], ins[i])
	}
	return pkts
}

// Batched versus per-packet hot path. Each iteration pushes the same
// 512-packet mixed batch through the filter, so ns/op is directly comparable
// between the "<flavor>/packet" rows (Process per packet) and the
// "<flavor>" rows (one ProcessBatchInto); the Sharded pair isolates the
// lock-amortization win (one acquisition per batch instead of one per
// packet). ProcessBatchInto with a reused verdict buffer must report 0
// allocs/op on every flavor: the warm-up call before the timer grows the
// buffer once.
func BenchmarkProcessBatchInto(b *testing.B) {
	const batch = 512
	pkts := batchWorkload(batch, 8)

	for _, impl := range batchImpls() {
		b.Run(impl.name+"/packet", func(b *testing.B) {
			f := impl.mk(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range pkts {
					f.Process(pkts[j])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/pkt")
		})
		b.Run(impl.name, func(b *testing.B) {
			f := impl.mk(b)
			var out []bitmapfilter.Verdict
			out = f.ProcessBatchInto(pkts, out) // warm up buffer + pools
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out = f.ProcessBatchInto(pkts, out)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/pkt")
		})
	}
}

// batchImpl builds one filter flavor for the batch benchmarks.
type batchImpl struct {
	name string
	mk   func(b *testing.B) bitmapfilter.BatchFilter
}

// batchImpls lists the flavors the batch benchmarks compare.
func batchImpls() []batchImpl {
	return []batchImpl{
		{name: "single", mk: func(b *testing.B) bitmapfilter.BatchFilter {
			f, err := bitmapfilter.New()
			if err != nil {
				b.Fatal(err)
			}
			return f
		}},
		{name: "sharded", mk: func(b *testing.B) bitmapfilter.BatchFilter {
			f, err := bitmapfilter.NewSharded(8, bitmapfilter.WithOrder(17))
			if err != nil {
				b.Fatal(err)
			}
			return f
		}},
	}
}

// Contended batched versus per-packet throughput: every goroutine hammers
// the same shared filter, the regime where per-packet locking collapses.
func BenchmarkBatchParallel(b *testing.B) {
	const batch = 512
	for _, impl := range batchImpls()[1:] { // the bare single filter is not goroutine-safe
		b.Run(impl.name+"/packet", func(b *testing.B) {
			f := impl.mk(b)
			pkts := batchWorkload(batch, 8)
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					f.Process(pkts[i&(batch-1)])
					i++
				}
			})
		})
		b.Run(impl.name+"/batch", func(b *testing.B) {
			f := impl.mk(b)
			pkts := batchWorkload(batch, 8)
			b.ReportAllocs()
			// Each pb.Next() corresponds to ONE packet so ns/op stays
			// per-packet comparable; batches are submitted every
			// `batch` steps, each goroutine recycling its own buffer.
			b.RunParallel(func(pb *testing.PB) {
				var out []bitmapfilter.Verdict
				n := 0
				for pb.Next() {
					n++
					if n == batch {
						out = f.ProcessBatchInto(pkts, out)
						n = 0
					}
				}
				if n > 0 {
					f.ProcessBatchInto(pkts[:n], out)
				}
			})
		})
	}
}

// O(1) introspection: Utilization and Stats must not scan the bitmap. At
// order 24 a pre-fix scan walked 2^24/64 = 262144 words per call.
func BenchmarkUtilizationStats(b *testing.B) {
	f, err := bitmapfilter.New(bitmapfilter.WithOrder(24))
	if err != nil {
		b.Fatal(err)
	}
	pkts := batchWorkload(1<<14, 9)
	f.ProcessBatchInto(pkts, nil)
	b.Run("utilization", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = f.Utilization()
		}
	})
	b.Run("penetration", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = f.PenetrationProbability()
		}
	})
	b.Run("stats", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = f.Stats()
		}
	})
}

func benchName(prefix string, v int) string {
	const digits = "0123456789"
	if v < 10 {
		return prefix + "=" + digits[v:v+1]
	}
	return prefix + "=" + digits[v/10:v/10+1] + digits[v%10:v%10+1]
}
