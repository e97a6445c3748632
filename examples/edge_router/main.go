// Command edge_router reproduces the Figure 1 usage model (experiment
// E12): the same two client networks and the same attack are simulated
// under the two deployment options the paper sketches —
//
//  1. one bitmap filter per edge router (each sees only its own subnet's
//     traffic), and
//  2. a single bitmap filter on the core router aggregating both subnets.
//
// Both placements stop the scan; the core placement trades one larger
// shared bitmap (higher utilization) for half the deployments.
package main

import (
	"fmt"
	"os"
	"time"

	"bitmapfilter"
	"bitmapfilter/internal/attack"
	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/netsim"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/xrand"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "edge_router:", err)
		os.Exit(1)
	}
}

type placement struct {
	name     string
	networks []*netsim.Network
	// subnets finds the network behind an address: owner[i] serves the
	// table's i-th prefix.
	subnets *packet.PrefixTable
	owner   []*netsim.Network
	filters []bitmapfilter.PacketFilter
	sim     *netsim.Simulator
}

func run() error {
	subnetA := bitmapfilter.PrefixFrom(bitmapfilter.AddrFrom4(10, 10, 0, 0), 24)
	subnetB := bitmapfilter.PrefixFrom(bitmapfilter.AddrFrom4(10, 10, 1, 0), 24)

	newFilter := func() (*bitmapfilter.Filter, error) {
		return bitmapfilter.New(
			bitmapfilter.WithOrder(16),
			bitmapfilter.WithVectors(4),
			bitmapfilter.WithHashes(3),
			bitmapfilter.WithRotateEvery(5*time.Second),
		)
	}

	// Placement 1: a filter on each edge router.
	edge, err := buildEdgePlacement(subnetA, subnetB, newFilter)
	if err != nil {
		return err
	}
	// Placement 2: one filter on the core router that aggregates both
	// subnets (modeled as one network spanning both prefixes).
	corePl, err := buildCorePlacement(subnetA, subnetB, newFilter)
	if err != nil {
		return err
	}

	for _, pl := range []*placement{edge, corePl} {
		if err := exercise(pl, subnetA, subnetB); err != nil {
			return err
		}
		report(pl)
	}

	// Structural version of the same question, on the Figure 1 router
	// tree: one filter on the core router aggregating both edges.
	return runTopology(subnetA, subnetB, newFilter)
}

// runTopology builds internet → core → {edgeA, edgeB} and shows the core
// filter blocking an Internet scan against both customer networks while
// sibling-customer traffic stays inside the core's subtree (unfiltered) —
// the §3.1 trade-off of the aggregated placement.
func runTopology(a, b bitmapfilter.Prefix, newFilter func() (*bitmapfilter.Filter, error)) error {
	sim := netsim.NewSimulator()
	topo, err := netsim.NewTopology(sim)
	if err != nil {
		return err
	}
	coreRtr, err := topo.AddRouter(nil, "core")
	if err != nil {
		return err
	}
	f, err := newFilter()
	if err != nil {
		return err
	}
	coreRtr.SetFilter(bitmapfilter.NewSafe(f))

	for i, subnet := range []bitmapfilter.Prefix{a, b} {
		edge, err := topo.AddRouter(coreRtr, fmt.Sprintf("edge%d", i))
		if err != nil {
			return err
		}
		if err := edge.AttachSubnet(subnet); err != nil {
			return err
		}
	}
	clientA, err := topo.AddHost("clientA", a.Nth(10))
	if err != nil {
		return err
	}
	clientB, err := topo.AddHost("clientB", b.Nth(10))
	if err != nil {
		return err
	}
	delivered := map[bitmapfilter.Addr]int{}
	onPkt := func(_ *netsim.Simulator, self *netsim.Host, _ bitmapfilter.Packet) {
		delivered[self.Addr()]++
	}
	clientA.OnPacket = onPkt
	clientB.OnPacket = onPkt

	// Internet scan against both networks: blocked at the core.
	r := xrand.New(9)
	for i := 0; i < 2000; i++ {
		dst := a.Nth(uint64(r.Intn(256)))
		if i%2 == 1 {
			dst = b.Nth(uint64(r.Intn(256)))
		}
		topo.InjectFromInternet(bitmapfilter.Packet{
			Tuple: bitmapfilter.Tuple{
				Src:     bitmapfilter.Addr(r.Uint32() | 1),
				Dst:     dst,
				SrcPort: uint16(1 + r.Intn(65000)),
				DstPort: uint16(1 + r.Intn(65000)),
				Proto:   bitmapfilter.TCP,
			},
			Flags: bitmapfilter.SYN, Length: 60,
		})
	}
	sim.RunAll()
	scanDelivered := delivered[clientA.Addr()] + delivered[clientB.Addr()]

	// Sibling traffic crosses only the edges, not the core filter.
	sim.After(time.Millisecond, func() {
		clientA.Send(clientB.Addr(), 4000, 445, bitmapfilter.TCP, bitmapfilter.SYN, 60)
	})
	sim.RunAll()
	siblingDelivered := delivered[clientA.Addr()] + delivered[clientB.Addr()] - scanDelivered

	st := coreRtr.Stats()
	fmt.Printf("=== figure-1 tree, filter on core router ===\n")
	fmt.Printf("  internet scan: %d probes, %d dropped at core, %d delivered\n",
		2000, st.InDropped, scanDelivered)
	fmt.Printf("  sibling A->B traffic delivered without crossing the filter: %d\n",
		siblingDelivered)
	return nil
}

func buildEdgePlacement(a, b bitmapfilter.Prefix, newFilter func() (*bitmapfilter.Filter, error)) (*placement, error) {
	sim := netsim.NewSimulator()
	subnets := []bitmapfilter.Prefix{a, b}
	pl := &placement{name: "per-edge filters", sim: sim, subnets: packet.NewPrefixTable(subnets)}
	for _, subnet := range subnets {
		f, err := newFilter()
		if err != nil {
			return nil, err
		}
		net, err := netsim.NewNetwork(sim, []bitmapfilter.Prefix{subnet}, f)
		if err != nil {
			return nil, err
		}
		pl.networks = append(pl.networks, net)
		pl.owner = append(pl.owner, net)
		pl.filters = append(pl.filters, f)
	}
	return pl, nil
}

func buildCorePlacement(a, b bitmapfilter.Prefix, newFilter func() (*bitmapfilter.Filter, error)) (*placement, error) {
	sim := netsim.NewSimulator()
	f, err := newFilter()
	if err != nil {
		return nil, err
	}
	subnets := []bitmapfilter.Prefix{a, b}
	net, err := netsim.NewNetwork(sim, subnets, f)
	if err != nil {
		return nil, err
	}
	return &placement{
		name:     "core aggregation filter",
		sim:      sim,
		networks: []*netsim.Network{net},
		subnets:  packet.NewPrefixTable(subnets),
		owner:    []*netsim.Network{net, net},
		filters:  []bitmapfilter.PacketFilter{f},
	}, nil
}

// exercise runs benign conversations from both subnets plus a random scan
// against them.
func exercise(pl *placement, a, b bitmapfilter.Prefix) error {
	r := xrand.New(7)
	// Attach clients and servers; the core placement has one network,
	// the edge placement one per subnet.
	findNet := func(addr bitmapfilter.Addr) *netsim.Network {
		if i := pl.subnets.Lookup(addr); i >= 0 {
			return pl.owner[i]
		}
		return nil
	}

	type pair struct {
		client *netsim.Host
		server *netsim.Host
	}
	var pairs []pair
	for i, subnet := range []bitmapfilter.Prefix{a, b} {
		net := findNet(subnet.Nth(1))
		clientAddr := subnet.Nth(uint64(10 + i))
		client, err := net.AddHost(fmt.Sprintf("client%d", i), clientAddr)
		if err != nil {
			return err
		}
		serverAddr := bitmapfilter.AddrFrom4(198, 51, 100, byte(10+i))
		server, err := net.AddInternetHost(fmt.Sprintf("server%d", i), serverAddr)
		if err != nil {
			return err
		}
		server.OnPacket = func(sim *netsim.Simulator, self *netsim.Host, pkt bitmapfilter.Packet) {
			// Echo one reply per request.
			self.Send(pkt.Tuple.Src, pkt.Tuple.DstPort, pkt.Tuple.SrcPort,
				pkt.Tuple.Proto, bitmapfilter.ACK, 512)
		}
		pairs = append(pairs, pair{client: client, server: server})
	}

	// Benign conversations: 200 request/reply rounds per subnet.
	for round := 0; round < 200; round++ {
		at := time.Duration(round) * 250 * time.Millisecond
		for i, p := range pairs {
			p := p
			port := uint16(40000 + round%1000 + i)
			pl.sim.Schedule(at, func() {
				p.client.Send(p.server.Addr(), port, 443,
					bitmapfilter.TCP, bitmapfilter.ACK, 200)
			})
		}
	}
	pl.sim.RunAll()

	// Attack: one random scan sweep against both subnets.
	scan, err := attack.NewRandomScan(attack.RandomScanConfig{
		Seed:     r.Uint64(),
		Rate:     5000,
		Start:    pl.sim.Now(),
		Duration: 20 * time.Second,
		Subnets:  []bitmapfilter.Prefix{a, b},
	})
	if err != nil {
		return err
	}
	for {
		pkt, ok := scan.Next()
		if !ok {
			break
		}
		pl.sim.Run(pkt.Time)
		if net := findNet(pkt.Tuple.Dst); net != nil {
			net.InjectIncoming(pkt)
		}
	}
	pl.sim.RunAll()
	return nil
}

func report(pl *placement) {
	fmt.Printf("=== %s ===\n", pl.name)
	var agg netsim.EdgeStats
	for i, net := range pl.networks {
		st := net.Stats()
		agg.OutForwarded += st.OutForwarded
		agg.InForwarded += st.InForwarded
		agg.InDropped += st.InDropped
		fmt.Printf("  router %d: out=%d in-passed=%d in-dropped=%d\n",
			i, st.OutForwarded, st.InForwarded, st.InDropped)
	}
	var memory uint64
	var checks filtering.Counters
	for _, f := range pl.filters {
		memory += f.MemoryBytes()
		c := f.Counters()
		checks.InPackets += c.InPackets
		checks.InDropped += c.InDropped
	}
	fmt.Printf("  total: filters=%d memory=%d KiB attack+benign in=%d dropped=%d (%.2f%%)\n\n",
		len(pl.filters), memory/1024, checks.InPackets, checks.InDropped,
		checks.DropRate()*100)
}
