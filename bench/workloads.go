package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"bitmapfilter/internal/attack"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/pcap"
	"bitmapfilter/internal/trafficgen"
)

// workload is one traffic mix plus the single bfwall flag that selects the
// filter it runs against. The why strings are the ones BENCHMARK.json
// records; README.md has the long form.
type workload struct {
	name string
	why  string

	// Trace: legitimate sessions at connRate over the client prefixes,
	// plus a random scan at scanPPS into them (0 = none), for virtual
	// seconds of trace time.
	connRate float64
	scanPPS  float64
	virtual  time.Duration

	// Filter: the paper's {4×order} m=3 bitmap, optionally sharded, or a
	// fleet of tenants /16 tenants each with its own filter.
	order   uint
	shards  int
	tenants int

	// loops is how many passes of the trace one timed bfwall run replays: a
	// fixed frame count, so that runs compare exactly; their time varies.
	// They are sized for about a second per run on the reference box (2 cores
	// at 2.1 GHz), one and a half for client_mix_o28. A sample is a process,
	// not a second: the spread between runs of scan_flood is the same at
	// 0.4 s, 1.5 s and 6 s per run (it comes from where the machine puts the
	// process, not from what happens inside it), so a steady result needs
	// many runs and gains nothing from long ones. client_mix_o28 runs longer
	// because its first pass over 128 MiB of untouched bitmap runs at 2.1M
	// frames/s against 2.9M once warm.
	loops int
}

// The geometry every workload shares: bfwall's defaults (k=4, m=3, Δt=5 s).
const (
	vectors     = 4
	hashes      = 3
	rotateEvery = 5 * time.Second
	batchSize   = 512 // bfwall -batch default
)

var workloads = []workload{
	{
		name:     "scan_flood",
		why:      "Fig. 5: 500K pps random scan over 25 sessions/s; 99.6% first-bit misses on an L2-resident bitmap, so read, decode and hashing do the work",
		connRate: 25, scanPPS: 500_000, virtual: time.Second,
		order: 20, loops: 13,
	},
	{
		name:     "client_mix_o28",
		why:      "legitimate two-way traffic only at order 28: k*m random writes per outgoing packet and full-m hits over 128 MiB, a 32 MiB clear every rotation",
		connRate: 4000, virtual: 20 * time.Second,
		order: 28, loops: 4,
	},
	{
		name:     "scan_flood_2lane",
		why:      "the scan_flood trace through -shards 2: the only workload a second core can help, prices the lock and regroup of the sharded plane",
		connRate: 25, scanPPS: 500_000, virtual: time.Second,
		order: 20, shards: 2, loops: 9,
	},
	{
		name:     "tenant_fleet",
		why:      "64 tenants at order 16 with sessions and a 100K pps scan over their prefixes: routing, grouping and the 64-prefix classify scan dominate",
		connRate: 4000, scanPPS: 100_000, virtual: 10 * time.Second,
		order: 16, tenants: 64, loops: 2,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// smoke shrinks the trace twentyfold and leaves loops and geometry alone: the
// same flags and code paths in a twentieth of the time.
func (w workload) smoke() workload {
	w.virtual /= 20
	return w
}

// subnets returns the client prefixes: 10.0.0.0/8, or one 10.<i>.0.0/16 per
// tenant. They confine trace generation and, as in bfwall, classify
// direction.
func (w workload) subnets() []packet.Prefix {
	if w.tenants == 0 {
		return []packet.Prefix{packet.PrefixFrom(packet.AddrFrom4(10, 0, 0, 0), 8)}
	}
	out := make([]packet.Prefix, w.tenants)
	for i := range out {
		out[i] = packet.PrefixFrom(packet.AddrFrom4(10, byte(i), 0, 0), 16)
	}
	return out
}

// fleetJSON renders the tenant.ParseConfig document for a tenant workload.
func (w workload) fleetJSON() ([]byte, error) {
	type tenantEntry struct {
		ID     string `json:"id"`
		Prefix string `json:"prefix"`
		Order  uint   `json:"order"`
	}
	doc := struct {
		Tenants []tenantEntry `json:"tenants"`
	}{}
	for i, p := range w.subnets() {
		doc.Tenants = append(doc.Tenants, tenantEntry{ID: fmt.Sprintf("t%02d", i), Prefix: p.String(), Order: w.order})
	}
	return json.MarshalIndent(doc, "", " ")
}

// bfwallArgs is the exact argv (after the program name) of one timed run:
// -bench -pcap -loops plus at most one workload flag.
func (w workload) bfwallArgs(tracePath, fleetPath string, loops int) []string {
	args := []string{"-bench", "-pcap", tracePath, "-loops", fmt.Sprint(loops)}
	switch {
	case w.tenants > 0:
		args = append(args, "-tenants", fleetPath)
	case w.shards > 1:
		args = append(args, "-shards", fmt.Sprint(w.shards))
	case w.order != 20:
		args = append(args, "-order", fmt.Sprint(w.order))
	}
	return args
}

// traceInfo is what makes two traces comparable.
type traceInfo struct {
	Path     string `json:"-"`
	SHA256   string `json:"sha256"`
	Bytes    int64  `json:"bytes"`
	Frames   uint64 `json:"frames"`
	Outgoing uint64 `json:"outgoing"`
	Incoming uint64 `json:"incoming"`
}

// writeTrace generates the workload's packet stream from seed and encodes it
// as minimum-size frames (Length 0 → bare headers, 42–54 B before any
// Ethernet padding) into a pcap file: per-packet cost dominates on the
// smallest packets, which is the regime the filter is judged in.
func writeTrace(w workload, seed uint64, path string) (traceInfo, error) {
	info := traceInfo{Path: path}
	tg := trafficgen.DefaultConfig()
	tg.Seed = seed
	tg.Duration = w.virtual
	tg.ConnRate = w.connRate
	tg.Subnets = w.subnets()
	gen, err := trafficgen.NewGenerator(tg)
	if err != nil {
		return info, err
	}
	var stream attack.Stream = gen
	if w.scanPPS > 0 {
		scan, err := attack.NewRandomScan(attack.RandomScanConfig{
			Seed:     seed + 1,
			Rate:     w.scanPPS,
			Duration: w.virtual,
			Subnets:  tg.Subnets,
		})
		if err != nil {
			return info, err
		}
		stream = attack.Merge(gen, scan)
	}

	f, err := os.Create(path)
	if err != nil {
		return info, err
	}
	defer f.Close()
	sum := sha256.New()
	bw := bufio.NewWriterSize(io.MultiWriter(f, sum), 1<<20)
	pw, err := pcap.NewWriter(bw)
	if err != nil {
		return info, err
	}
	for {
		pkt, ok := stream.Next()
		if !ok {
			break
		}
		if pkt.Dir == packet.Outgoing {
			info.Outgoing++
		} else {
			info.Incoming++
		}
		pkt.Length = 0
		frame, err := packet.Encode(pkt)
		if err != nil {
			return info, err
		}
		if err := pw.WriteRecord(pcap.Record{Time: pkt.Time, Data: frame}); err != nil {
			return info, err
		}
		info.Frames++
	}
	if err := bw.Flush(); err != nil {
		return info, err
	}
	if err := f.Close(); err != nil {
		return info, err
	}
	if info.Frames == 0 {
		return info, fmt.Errorf("workload %s: empty trace", w.name)
	}
	st, err := os.Stat(path)
	if err != nil {
		return info, err
	}
	info.Bytes = st.Size()
	info.SHA256 = hex.EncodeToString(sum.Sum(nil))
	return info, nil
}

// prepared is a workload's generated inputs on disk.
type prepared struct {
	w         workload
	trace     traceInfo
	fleetPath string // "" unless the workload is a tenant fleet
}

// prepare writes the workload's trace (and fleet config) under dir.
func prepare(w workload, seed uint64, dir string) (prepared, error) {
	p := prepared{w: w}
	var err error
	if p.trace, err = writeTrace(w, seed, filepath.Join(dir, w.name+".pcap")); err != nil {
		return p, fmt.Errorf("generate %s: %w", w.name, err)
	}
	if w.tenants > 0 {
		doc, err := w.fleetJSON()
		if err != nil {
			return p, err
		}
		p.fleetPath = filepath.Join(dir, w.name+".fleet.json")
		if err := os.WriteFile(p.fleetPath, doc, 0o644); err != nil {
			return p, err
		}
	}
	return p, nil
}
