// Command edge_router reproduces the Figure 1 usage model (experiment
// E12): the same two client networks and the same attack are judged under
// the two deployment options the paper sketches —
//
//  1. one bitmap filter per edge router (each sees only its own subnet's
//     traffic: a TenantSet routes each packet to its subnet's filter), and
//  2. a single bitmap filter on the core router aggregating both subnets.
//
// Both placements stop the scan; the core placement trades one larger
// shared bitmap (higher utilization) for half the deployments. Traffic
// between the two sibling networks turns at their edge routers, below the
// core, so it never crosses the core filter.
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"bitmapfilter"
	"bitmapfilter/internal/attack"
	"bitmapfilter/internal/xrand"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "edge_router:", err)
		os.Exit(1)
	}
}

// placement is one deployment: the filter every client packet crosses and
// the counters of each router it stands for.
type placement struct {
	name    string
	filter  bitmapfilter.PacketFilter
	routers func() []bitmapfilter.Counters
}

func run(w io.Writer) error {
	subnets := []bitmapfilter.Prefix{
		bitmapfilter.PrefixFrom(bitmapfilter.AddrFrom4(10, 10, 0, 0), 24),
		bitmapfilter.PrefixFrom(bitmapfilter.AddrFrom4(10, 10, 1, 0), 24),
	}
	opts := []bitmapfilter.Option{
		bitmapfilter.WithOrder(16),
		bitmapfilter.WithVectors(4),
		bitmapfilter.WithHashes(3),
		bitmapfilter.WithRotateEvery(5 * time.Second),
	}

	// Placement 1: a filter on each edge router.
	edges, err := bitmapfilter.NewTenantSet(bitmapfilter.TenantSetConfig{Tenants: []bitmapfilter.TenantConfig{
		{ID: "edge0", Prefix: subnets[0], Options: opts},
		{ID: "edge1", Prefix: subnets[1], Options: opts},
	}})
	if err != nil {
		return err
	}
	// Placement 2: one filter on the core router that aggregates both
	// subnets.
	core, err := bitmapfilter.New(opts...)
	if err != nil {
		return err
	}

	for _, pl := range []placement{
		{name: "per-edge filters", filter: edges, routers: func() []bitmapfilter.Counters {
			var out []bitmapfilter.Counters
			for _, st := range edges.TenantStats() {
				out = append(out, st.Stats.Counters)
			}
			return out
		}},
		{name: "core aggregation filter", filter: core, routers: func() []bitmapfilter.Counters {
			return []bitmapfilter.Counters{core.Counters()}
		}},
	} {
		if err := exercise(pl.filter, subnets); err != nil {
			return err
		}
		report(w, pl)
	}
	return nil
}

// exercise judges benign conversations from both subnets, then a random
// scan against them. Each subnet has one client talking to its own server
// 10 ms away: a request leaves every 250 ms and its reply arrives 20 ms
// later. The scan starts once the last reply has reached its client, 0.2 ms
// past its arrival at the edge.
func exercise(filter bitmapfilter.PacketFilter, subnets []bitmapfilter.Prefix) error {
	const (
		rounds = 200
		every  = 250 * time.Millisecond
		rtt    = 20 * time.Millisecond
	)
	for round := 0; round < rounds; round++ {
		at := time.Duration(round) * every
		var requests []bitmapfilter.Tuple
		for i, subnet := range subnets {
			requests = append(requests, bitmapfilter.Tuple{
				Src: subnet.Nth(uint64(10 + i)), Dst: bitmapfilter.AddrFrom4(198, 51, 100, byte(10+i)),
				SrcPort: uint16(40000 + round%1000 + i), DstPort: 443, Proto: bitmapfilter.TCP,
			})
		}
		for _, req := range requests {
			filter.Process(bitmapfilter.Packet{Time: at, Dir: bitmapfilter.Outgoing, Tuple: req,
				Flags: bitmapfilter.ACK, Length: 200})
		}
		for _, req := range requests {
			filter.Process(bitmapfilter.Packet{Time: at + rtt, Dir: bitmapfilter.Incoming, Tuple: req.Reverse(),
				Flags: bitmapfilter.ACK, Length: 512})
		}
	}

	scan, err := attack.NewRandomScan(attack.RandomScanConfig{
		Seed:     xrand.New(7).Uint64(),
		Rate:     5000,
		Start:    (rounds-1)*every + rtt + 200*time.Microsecond,
		Duration: 20 * time.Second,
		Subnets:  subnets,
	})
	if err != nil {
		return err
	}
	for {
		pkt, ok := scan.Next()
		if !ok {
			return nil
		}
		filter.Process(pkt)
	}
}

func report(w io.Writer, pl placement) {
	fmt.Fprintf(w, "=== %s ===\n", pl.name)
	routers := pl.routers()
	for i, c := range routers {
		fmt.Fprintf(w, "  router %d: out=%d in-passed=%d in-dropped=%d\n",
			i, c.OutPackets, c.InPassed, c.InDropped)
	}
	c := pl.filter.Counters()
	fmt.Fprintf(w, "  total: filters=%d memory=%d KiB attack+benign in=%d dropped=%d (%.2f%%)\n\n",
		len(routers), pl.filter.MemoryBytes()/1024, c.InPackets, c.InDropped,
		c.DropRate()*100)
}
