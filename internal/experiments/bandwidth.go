package experiments

import (
	"fmt"
	"sort"
	"time"

	"bitmapfilter/internal/core"
	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/xrand"
)

// BandwidthConfig parameterizes the end-to-end bandwidth-attack experiment
// (§1 + §5.3): a client network behind a bottleneck access link is flooded
// while benign flows run, under three edge configurations — no filter, the
// plain bitmap filter, and an APD(bandwidth-utilization) bitmap filter.
//
// The experiment separates three traffic classes the configurations treat
// differently:
//
//   - benign replies (matched marks): everyone should deliver these;
//   - benign-but-unmatched packets (server pushes on expired marks):
//     the plain bitmap drops them always, APD admits them while the link
//     is idle (the whole point of §5.3's "adaptive" dropping);
//   - flood packets: the unprotected link collapses under them, both
//     filters shed them before the bottleneck.
type BandwidthConfig struct {
	Seed uint64
	// LinkBps is the bottleneck capacity in bits/second.
	LinkBps float64
	// Phase is the length of each of the two phases (calm, then flood).
	Phase time.Duration
	// FloodBps is the offered flood rate during phase 2, in bits/second.
	FloodBps float64
}

// DefaultBandwidthConfig floods a 2 Mbit/s access link at 5× capacity.
func DefaultBandwidthConfig() BandwidthConfig {
	return BandwidthConfig{
		Seed:     1,
		LinkBps:  2e6,
		Phase:    30 * time.Second,
		FloodBps: 1e7,
	}
}

// BandwidthOutcome is the result for one edge configuration.
type BandwidthOutcome struct {
	Config string
	// BenignDelivered counts matched benign replies that reached the
	// client.
	BenignDelivered uint64
	BenignSent      uint64
	// UnmatchedDelivered counts benign-but-unmatched deliveries (server
	// pushes) — only APD can admit these.
	UnmatchedDelivered uint64
	UnmatchedSent      uint64
	// FloodDelivered counts attack packets that reached a host.
	FloodDelivered uint64
	FloodSent      uint64
	// TailDropped counts packets lost to bottleneck congestion.
	TailDropped uint64
}

// BandwidthResult compares the three configurations.
type BandwidthResult struct {
	Unfiltered BandwidthOutcome
	Plain      BandwidthOutcome
	APD        BandwidthOutcome
}

// RunBandwidth executes the three runs with identical traffic.
func RunBandwidth(cfg BandwidthConfig) (BandwidthResult, error) {
	if cfg.LinkBps <= 0 {
		return BandwidthResult{}, fmt.Errorf("bandwidth: link capacity %v bit/s", cfg.LinkBps)
	}
	type mode struct {
		name string
		mk   func() (filtering.PacketFilter, error)
	}
	modes := []mode{
		{name: "unfiltered", mk: func() (filtering.PacketFilter, error) { return nil, nil }},
		{name: "bitmap", mk: func() (filtering.PacketFilter, error) {
			return core.New(
				core.WithOrder(16), core.WithVectors(4), core.WithHashes(3),
				core.WithRotateEvery(5*time.Second), core.WithSeed(cfg.Seed))
		}},
		{name: "bitmap+apd", mk: func() (filtering.PacketFilter, error) {
			policy, err := core.NewBandwidthPolicy(cfg.LinkBps, 2*time.Second)
			if err != nil {
				return nil, err
			}
			return core.New(
				core.WithOrder(16), core.WithVectors(4), core.WithHashes(3),
				core.WithRotateEvery(5*time.Second), core.WithSeed(cfg.Seed),
				core.WithAPD(policy))
		}},
	}

	var outs []BandwidthOutcome
	for _, m := range modes {
		filter, err := m.mk()
		if err != nil {
			return BandwidthResult{}, fmt.Errorf("bandwidth: %w", err)
		}
		outs = append(outs, runBandwidthMode(cfg, m.name, filter))
	}
	return BandwidthResult{Unfiltered: outs[0], Plain: outs[1], APD: outs[2]}, nil
}

// bottleneck is the ISP→client access link (§1: "the bottleneck bandwidth
// usually lies on the link between the client network and the ISP"): each
// packet holds the wire for length·8/bps, and one that finds more than
// maxBacklog queued ahead of it is tail-dropped.
type bottleneck struct {
	bps        float64
	maxBacklog time.Duration
	nextFree   time.Duration // when the wire goes idle
	tailDrops  uint64
}

// admit queues a packet of length bytes arriving at now; false is a tail
// drop.
func (l *bottleneck) admit(now time.Duration, length int) bool {
	if l.nextFree < now {
		l.nextFree = now
	}
	if l.nextFree-now > l.maxBacklog {
		l.tailDrops++
		return false
	}
	l.nextFree += time.Duration(float64(length*8) / l.bps * float64(time.Second))
	return true
}

// runBandwidthMode judges one time-ordered stream at the client's edge: a
// request every 200 ms leaves at t and its reply arrives 20 ms later (the
// round trip to the web server), a server push arrives every second on a
// port the client never opened, and the flood fills phase 2. An incoming
// packet the filter passes crosses the bottleneck and counts as delivered
// if it is addressed to the client.
func runBandwidthMode(cfg BandwidthConfig, name string, filter filtering.PacketFilter) BandwidthOutcome {
	const (
		benignPort = 443
		pushPort   = 30000
		floodPkt   = 1400
		rtt        = 20 * time.Millisecond
	)
	subnet := packet.PrefixFrom(packet.AddrFrom4(10, 10, 0, 0), 24)
	client := subnet.Nth(5)
	webServer := packet.AddrFrom4(198, 51, 100, 7)
	pushServer := packet.AddrFrom4(198, 51, 100, 99) // never contacted
	total := 2 * cfg.Phase
	out := BandwidthOutcome{Config: name}

	// At equal instants a scheduled packet goes before a reply: the
	// replies are appended last, and the sort below is stable.
	var stream, replies []packet.Packet
	for at := time.Duration(0); at < total; at += 200 * time.Millisecond {
		req := packet.Packet{
			Time: at, Dir: packet.Outgoing,
			Tuple: packet.Tuple{
				Src: client, Dst: webServer,
				SrcPort: uint16(40000 + (at/(200*time.Millisecond))%1000), DstPort: benignPort,
				Proto: packet.TCP,
			},
			Flags: packet.ACK, Length: 120,
		}
		stream = append(stream, req)
		out.BenignSent++
		replies = append(replies, packet.Packet{
			Time: at + rtt, Dir: packet.Incoming, Tuple: req.Tuple.Reverse(),
			Flags: packet.ACK, Length: 1200,
		})
	}
	for at := 500 * time.Millisecond; at < total; at += time.Second {
		out.UnmatchedSent++
		stream = append(stream, packet.Packet{
			Time: at, Dir: packet.Incoming,
			Tuple: packet.Tuple{
				Src: pushServer, Dst: client,
				SrcPort: 80, DstPort: pushPort, Proto: packet.TCP,
			},
			Flags: packet.PSH | packet.ACK, Length: 800,
		})
	}
	r := xrand.New(cfg.Seed)
	floodInterval := time.Duration(float64(floodPkt*8) / cfg.FloodBps * float64(time.Second))
	for at := cfg.Phase; at < total; at += floodInterval {
		out.FloodSent++
		stream = append(stream, packet.Packet{
			Time: at, Dir: packet.Incoming,
			Tuple: packet.Tuple{
				Src:     packet.Addr(r.Uint32() | 1),
				Dst:     subnet.Nth(uint64(r.Intn(int(subnet.Size())))),
				SrcPort: uint16(1 + r.Intn(65000)),
				DstPort: uint16(1 + r.Intn(65000)),
				Proto:   packet.UDP,
			},
			Length: floodPkt,
		})
	}
	stream = append(stream, replies...)
	sort.SliceStable(stream, func(i, j int) bool { return stream[i].Time < stream[j].Time })
	link := bottleneck{bps: cfg.LinkBps, maxBacklog: 50 * time.Millisecond}
	for _, pkt := range stream {
		v := filtering.Pass
		if filter != nil {
			v = filter.Process(pkt)
		}
		if pkt.Dir == packet.Outgoing || v == filtering.Drop || !link.admit(pkt.Time, pkt.Length) {
			continue
		}
		if pkt.Tuple.Dst != client {
			continue // a flood packet to an address with no host behind it
		}
		switch {
		case pkt.Tuple.Src == pushServer:
			out.UnmatchedDelivered++
		case pkt.Tuple.SrcPort == benignPort:
			out.BenignDelivered++
		default:
			out.FloodDelivered++
		}
	}
	out.TailDropped = link.tailDrops
	return out
}

// Format renders the comparison.
func (r BandwidthResult) Format() string {
	t := newTable(26, 13, 13, 13)
	t.row("bandwidth attack (E10b)", "unfiltered", "bitmap", "bitmap+apd")
	t.line()
	row := func(label string, f func(BandwidthOutcome) string) {
		t.row(label, f(r.Unfiltered), f(r.Plain), f(r.APD))
	}
	row("benign delivered", func(o BandwidthOutcome) string {
		return fmt.Sprintf("%d/%d", o.BenignDelivered, o.BenignSent)
	})
	row("server pushes delivered", func(o BandwidthOutcome) string {
		return fmt.Sprintf("%d/%d", o.UnmatchedDelivered, o.UnmatchedSent)
	})
	row("flood delivered", func(o BandwidthOutcome) string {
		return fmt.Sprintf("%d/%d", o.FloodDelivered, o.FloodSent)
	})
	row("bottleneck tail drops", func(o BandwidthOutcome) string {
		return fmt.Sprintf("%d", o.TailDropped)
	})
	return t.String()
}
