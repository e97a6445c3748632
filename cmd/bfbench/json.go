package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"bitmapfilter/internal/core"
	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/live"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/tenant"
	"bitmapfilter/internal/xrand"
)

// The -json mode is the repo-local perf trajectory: it measures the pinned
// kernel+flavor benchmark matrix (single/safe/sharded/live × scalar/
// coalesced ProcessBatchInto on the standard 512-packet mixed batch) with
// a fixed -count and -benchtime, and writes machine-readable results to
// BENCH_<pr>.json. Checked-in BENCH files make every PR's speed claims
// diffable in-repo (`bfbench -compare old.json new.json`) instead of
// living only in CI logs.

// benchSchema identifies the BENCH file format.
const benchSchema = "bfbench/v1"

// benchFile is the serialized form of one benchmark run.
type benchFile struct {
	Schema      string        `json:"schema"`
	Label       string        `json:"label"`
	Go          string        `json:"go"`
	GOOS        string        `json:"goos"`
	GOARCH      string        `json:"goarch"`
	CPUs        int           `json:"cpus"`
	Batch       int           `json:"batch"`
	Count       int           `json:"count"`
	BenchTimeMs int64         `json:"benchtime_ms"`
	Results     []benchResult `json:"results"`
}

// benchResult is one (flavor, kernel) cell of the matrix. NsPerPkt is the
// minimum across the -count runs — the least-noise estimator on a shared
// machine — with every run's value retained in Samples; AllocsPerOp is the
// maximum across runs (the hot-path contract is exactly 0) with
// testing.B.AllocsPerOp semantics: total mallocs over iterations,
// truncated, so ambient runtime activity (background GC on a busy box)
// does not smear the per-op contract the way a fractional report would.
type benchResult struct {
	Flavor      string    `json:"flavor"`
	Kernel      string    `json:"kernel"`
	NsPerPkt    float64   `json:"ns_per_pkt"`
	PPS         float64   `json:"pps"`
	AllocsPerOp uint64    `json:"allocs_per_op"`
	Samples     []float64 `json:"samples_ns_per_pkt"`
}

// benchWorkload builds the standard mixed batch: outgoing packets over
// distinct tuples interleaved with their replies, all timestamps zero (the
// same shape as the root-package BenchmarkProcessBatchInto).
func benchWorkload(n int, seed uint64) []packet.Packet {
	r := xrand.New(seed)
	pkts := make([]packet.Packet, 0, n)
	for i := 0; len(pkts) < n; i++ {
		tup := packet.Tuple{
			Src:     packet.AddrFrom4(10, 10, byte(i>>16), byte(i>>8)),
			Dst:     packet.Addr(r.Uint32() | 1),
			SrcPort: uint16(1024 + i%60000),
			DstPort: 80,
			Proto:   packet.TCP,
		}
		pkts = append(pkts,
			packet.Packet{Tuple: tup, Dir: packet.Outgoing, Flags: packet.ACK, Length: 60},
			packet.Packet{Tuple: tup.Reverse(), Dir: packet.Incoming, Flags: packet.ACK, Length: 60})
	}
	return pkts[:n]
}

// tenantWorkload is benchWorkload with the client side spread uniformly
// across the tenants flavor's 64 /16 prefixes, so a batch exercises the
// full route→group→dispatch path (table lookup per packet, counting
// sort, ~64 grouped sub-batches) rather than collapsing into one tenant.
func tenantWorkload(n int, seed uint64) []packet.Packet {
	r := xrand.New(seed)
	pkts := make([]packet.Packet, 0, n)
	for i := 0; len(pkts) < n; i++ {
		tup := packet.Tuple{
			Src:     packet.AddrFrom4(10, byte(i%benchTenants), byte(i>>8), byte(i)),
			Dst:     packet.Addr(r.Uint32() | 1),
			SrcPort: uint16(1024 + i%60000),
			DstPort: 80,
			Proto:   packet.TCP,
		}
		pkts = append(pkts,
			packet.Packet{Tuple: tup, Dir: packet.Outgoing, Flags: packet.ACK, Length: 60},
			packet.Packet{Tuple: tup.Reverse(), Dir: packet.Incoming, Flags: packet.ACK, Length: 60})
	}
	return pkts[:n]
}

// benchTenants is the pinned fleet size of the tenants flavor; the
// ns/pkt gap between the tenants and single rows is the routing +
// grouped-dispatch overhead the multi-tenant data plane costs.
const benchTenants = 64

// batchIntoFunc is the one method every measured flavor exposes.
type batchIntoFunc func([]packet.Packet, []filtering.Verdict) []filtering.Verdict

// cellFunc is one measured operation: process the cell's pinned workload
// once, reusing the verdict buffer. Filter flavors close over a packet
// batch; wire cells close over encoded frames and decode them first, so
// the matrix can price the full wire-to-verdict path in the same table.
type cellFunc func(out []filtering.Verdict) []filtering.Verdict

// mkFlavor builds one filter flavor with the given kernel mode and returns
// its batch entry point. The configurations are pinned (single/safe/live
// at the paper's {4×20}, sharded at 8×order-17) so results are comparable
// across PRs.
func mkFlavor(flavor string, kernels core.KernelMode) (batchIntoFunc, error) {
	opt := core.WithKernels(kernels)
	switch flavor {
	case "single":
		f, err := core.New(opt)
		if err != nil {
			return nil, err
		}
		return f.ProcessBatchInto, nil
	case "safe":
		f, err := core.New(opt)
		if err != nil {
			return nil, err
		}
		return core.NewSafe(f).ProcessBatchInto, nil
	case "sharded":
		s, err := core.NewSharded(8, core.WithOrder(17), opt)
		if err != nil {
			return nil, err
		}
		return s.ProcessBatchInto, nil
	case "live":
		f, err := core.New(opt)
		if err != nil {
			return nil, err
		}
		l, err := live.New(f)
		if err != nil {
			return nil, err
		}
		return l.ObserveBatchInto, nil
	case "tenants":
		cfgs := make([]tenant.Config, benchTenants)
		for t := range cfgs {
			cfgs[t] = tenant.Config{
				ID:     fmt.Sprintf("t%02d", t),
				Prefix: packet.PrefixFrom(packet.AddrFrom4(10, byte(t), 0, 0), 16),
				Options: []core.Option{
					core.WithOrder(14), core.WithSeed(uint64(t) + 1), opt,
				},
			}
		}
		s, err := tenant.NewSet(tenant.SetConfig{Tenants: cfgs})
		if err != nil {
			return nil, err
		}
		return s.ProcessBatchInto, nil
	}
	return nil, fmt.Errorf("unknown flavor %q", flavor)
}

// mkWireCell builds one wire-flavor cell: the standard batch re-encoded to
// 720-byte Ethernet/IPv4 frames (the simulator's average-packet shape),
// decoded back every op — DecodeInto for "zerocopy", Decode+ToPacket for
// "struct" — and pushed through a pinned single coalesced filter.
func mkWireCell(decode string, batch int) (cellFunc, int, error) {
	pkts := benchWorkload(batch, 8)
	frames := make([][]byte, len(pkts))
	for i := range pkts {
		pkts[i].Length = 720
		buf, err := packet.Encode(pkts[i])
		if err != nil {
			return nil, 0, err
		}
		frames[i] = buf
	}
	f, err := core.New(core.WithKernels(core.KernelCoalesced))
	if err != nil {
		return nil, 0, err
	}
	scratch := make([]packet.Packet, len(frames))
	switch decode {
	case "zerocopy":
		return func(out []filtering.Verdict) []filtering.Verdict {
			for i, fr := range frames {
				if err := packet.DecodeInto(&scratch[i], fr); err != nil {
					panic(err) // frames are self-encoded; decode cannot fail
				}
			}
			return f.ProcessBatchInto(scratch, out)
		}, len(frames), nil
	case "struct":
		return func(out []filtering.Verdict) []filtering.Verdict {
			for i, fr := range frames {
				df, err := packet.Decode(fr)
				if err != nil {
					panic(err) // frames are self-encoded; decode cannot fail
				}
				scratch[i] = df.ToPacket()
			}
			return f.ProcessBatchInto(scratch, out)
		}, len(frames), nil
	}
	return nil, 0, fmt.Errorf("unknown wire decode %q", decode)
}

// measure runs one timed window of back-to-back batches and reports
// (ns/pkt, allocs per batch call). pktsPerOp is how many packets one run
// call processes.
func measure(run cellFunc, pktsPerOp int, out []filtering.Verdict, benchtime time.Duration) (float64, uint64, []filtering.Verdict) {
	// Settle background GC work so stray runtime allocations don't land
	// inside the measurement window and smear the allocs/op contract.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	iters := 0
	start := time.Now()
	var elapsed time.Duration
	for elapsed < benchtime {
		for j := 0; j < 8; j++ {
			out = run(out)
		}
		iters += 8
		elapsed = time.Since(start)
	}
	runtime.ReadMemStats(&after)
	nsPerPkt := float64(elapsed.Nanoseconds()) / float64(iters*pktsPerOp)
	allocs := (after.Mallocs - before.Mallocs) / uint64(iters)
	return nsPerPkt, allocs, out
}

// runJSONBench measures the pinned matrix and writes the BENCH file to w.
// The count measurement windows are taken round-robin across every
// (flavor, kernel) cell rather than back-to-back per cell: on a shared
// machine, load drifts on the scale of seconds, and interleaving spreads
// that drift across all cells so min-of-count comparisons (scalar vs
// coalesced in particular) are not biased by when a cell happened to run.
func runJSONBench(w io.Writer, label string, batch, count int, benchtime time.Duration) error {
	pkts := benchWorkload(batch, 8)
	file := benchFile{
		Schema:      benchSchema,
		Label:       label,
		Go:          runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		CPUs:        runtime.NumCPU(),
		Batch:       batch,
		Count:       count,
		BenchTimeMs: benchtime.Milliseconds(),
	}
	kernels := []struct {
		name string
		mode core.KernelMode
	}{
		{name: "scalar", mode: core.KernelScalar},
		{name: "coalesced", mode: core.KernelCoalesced},
	}
	type cell struct {
		res   benchResult
		run   cellFunc
		perOp int
		out   []filtering.Verdict
	}
	var cells []*cell
	for _, flavor := range []string{"single", "safe", "sharded", "live", "tenants"} {
		for _, k := range kernels {
			bi, err := mkFlavor(flavor, k.mode)
			if err != nil {
				return err
			}
			// The tenants flavor routes by client prefix, so its batch
			// spreads clients across the fleet; every other flavor shares
			// the standard workload, keeping row shapes identical.
			cellPkts := pkts
			if flavor == "tenants" {
				cellPkts = tenantWorkload(batch, 8)
			}
			c := &cell{
				res:   benchResult{Flavor: flavor, Kernel: k.name, Samples: make([]float64, 0, count)},
				run:   func(out []filtering.Verdict) []filtering.Verdict { return bi(cellPkts, out) },
				perOp: len(cellPkts),
			}
			cells = append(cells, c)
		}
	}
	// The wire rows price the live packet plane: the same standard batch
	// encoded to 720-byte frames (the paper's average packet size) and
	// decoded back per op — zero-copy header decode vs. the full Frame
	// decode — before the identical ProcessBatchInto call. The gap between
	// wire/zerocopy and the single rows is the decode cost per packet.
	for _, decode := range []string{"zerocopy", "struct"} {
		run, perOp, err := mkWireCell(decode, batch)
		if err != nil {
			return err
		}
		cells = append(cells, &cell{
			res:   benchResult{Flavor: "wire", Kernel: decode, Samples: make([]float64, 0, count)},
			run:   run,
			perOp: perOp,
		})
	}
	for _, c := range cells {
		// Warm up: grow the verdict buffer and scratch pools, prime
		// caches and branch predictors.
		for j := 0; j < 32; j++ {
			c.out = c.run(c.out)
		}
	}
	for s := 0; s < count; s++ {
		for _, c := range cells {
			ns, allocs, o := measure(c.run, c.perOp, c.out, benchtime)
			c.out = o
			c.res.Samples = append(c.res.Samples, ns)
			if s == 0 || ns < c.res.NsPerPkt {
				c.res.NsPerPkt = ns
			}
			if allocs > c.res.AllocsPerOp {
				c.res.AllocsPerOp = allocs
			}
		}
		fmt.Fprintf(os.Stderr, "  pass %d/%d done\n", s+1, count)
	}
	for _, c := range cells {
		c.res.PPS = 1e9 / c.res.NsPerPkt
		file.Results = append(file.Results, c.res)
		fmt.Fprintf(os.Stderr, "  %-8s %-10s %8.1f ns/pkt  %12.0f pps  %d allocs/op\n",
			c.res.Flavor, c.res.Kernel, c.res.NsPerPkt, c.res.PPS, c.res.AllocsPerOp)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(file)
}

// loadBenchFile reads and validates a BENCH_*.json file.
func loadBenchFile(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != benchSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, benchSchema)
	}
	return &f, nil
}

// compareBench prints a per-config delta table between two BENCH files —
// the in-repo benchstat for the persisted perf trajectory.
func compareBench(w io.Writer, oldPath, newPath string) error {
	oldF, err := loadBenchFile(oldPath)
	if err != nil {
		return err
	}
	newF, err := loadBenchFile(newPath)
	if err != nil {
		return err
	}
	oldBy := map[string]benchResult{}
	for _, r := range oldF.Results {
		oldBy[r.Flavor+"/"+r.Kernel] = r
	}
	fmt.Fprintf(w, "%-20s %12s %12s %9s\n", "flavor/kernel",
		oldF.Label+" ns/pkt", newF.Label+" ns/pkt", "delta")
	for _, nr := range newF.Results {
		key := nr.Flavor + "/" + nr.Kernel
		or, ok := oldBy[key]
		if !ok {
			fmt.Fprintf(w, "%-20s %12s %12.1f %9s\n", key, "-", nr.NsPerPkt, "new")
			continue
		}
		delta := (nr.NsPerPkt - or.NsPerPkt) / or.NsPerPkt * 100
		fmt.Fprintf(w, "%-20s %12.1f %12.1f %+8.1f%%\n", key, or.NsPerPkt, nr.NsPerPkt, delta)
	}
	return nil
}
