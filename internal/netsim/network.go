package netsim

import (
	"errors"
	"fmt"
	"time"

	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/packet"
)

// Topology errors.
var (
	ErrAddrInUse   = errors.New("netsim: address already in use")
	ErrNotInSubnet = errors.New("netsim: address outside network subnets")
	ErrInSubnet    = errors.New("netsim: external address inside client subnets")
)

// Latencies of the simulated paths. Values are small and fixed; the
// experiments care about filtering decisions, not queueing dynamics.
const (
	// LANDelay is host ↔ edge router latency.
	LANDelay = 200 * time.Microsecond
	// WANDelay is edge router ↔ Internet host latency.
	WANDelay = 10 * time.Millisecond
)

// Host is an endpoint attached either inside a client network or out on
// the Internet. OnPacket, if set, runs on every delivered packet.
type Host struct {
	addr    packet.Addr
	name    string
	network *Network  // star-topology attachment (NewNetwork)
	topo    *Topology // tree-topology attachment (NewTopology)
	inside  bool

	// OnPacket handles packets delivered to this host.
	OnPacket func(sim *Simulator, self *Host, pkt packet.Packet)

	received uint64
}

// Addr returns the host address.
func (h *Host) Addr() packet.Addr { return h.addr }

// Name returns the host's display name.
func (h *Host) Name() string { return h.name }

// Inside reports whether the host sits inside the protected network.
func (h *Host) Inside() bool { return h.inside }

// Received returns the number of packets delivered to the host.
func (h *Host) Received() uint64 { return h.received }

// Send emits a packet from this host to dst. TCP flags and length describe
// the packet; the attachment (star network or router topology) stamps time
// and direction.
func (h *Host) Send(dst packet.Addr, srcPort, dstPort uint16, proto packet.Proto, flags packet.Flags, length int) {
	pkt := packet.Packet{
		Tuple: packet.Tuple{
			Src: h.addr, Dst: dst,
			SrcPort: srcPort, DstPort: dstPort,
			Proto: proto,
		},
		Flags:  flags,
		Length: length,
	}
	if h.topo != nil {
		pkt.Time = h.topo.sim.Now()
		h.topo.send(pkt)
		return
	}
	pkt.Time = h.network.sim.Now()
	h.network.route(pkt, h)
}

// EdgeStats counts the edge router's forwarding decisions.
type EdgeStats struct {
	OutForwarded uint64 // client → Internet packets forwarded
	InForwarded  uint64 // Internet → client packets admitted
	InDropped    uint64 // Internet → client packets dropped by the filter
	InNoRoute    uint64 // admitted packets with no attached host
}

// Network is one protected client network: a set of subnets behind an edge
// router, plus the Internet hosts it talks to. A filter, if installed,
// sits on the edge router exactly as in Figure 1.
type Network struct {
	sim     *Simulator
	subnets *packet.PrefixTable
	filter  filtering.PacketFilter // nil means unfiltered
	hosts   map[packet.Addr]*Host  // inside hosts
	remote  map[packet.Addr]*Host  // Internet hosts
	inbound *link                  // optional ISP→client bottleneck
	stats   EdgeStats
}

// NewNetwork builds a network over the given subnets. filter may be nil
// (an unprotected network).
func NewNetwork(sim *Simulator, subnets []packet.Prefix, filter filtering.PacketFilter) (*Network, error) {
	if sim == nil {
		return nil, errors.New("netsim: nil simulator")
	}
	if len(subnets) == 0 {
		return nil, errors.New("netsim: no subnets")
	}
	return &Network{
		sim:     sim,
		subnets: packet.NewPrefixTable(subnets),
		filter:  filter,
		hosts:   make(map[packet.Addr]*Host),
		remote:  make(map[packet.Addr]*Host),
	}, nil
}

// Filter returns the installed filter (nil if none).
func (n *Network) Filter() filtering.PacketFilter { return n.filter }

// Stats returns the edge router counters.
func (n *Network) Stats() EdgeStats { return n.stats }

// Contains reports whether addr belongs to the network's subnets.
func (n *Network) Contains(addr packet.Addr) bool {
	return n.subnets.Lookup(addr) >= 0
}

// AddHost attaches an inside host at addr.
func (n *Network) AddHost(name string, addr packet.Addr) (*Host, error) {
	if !n.Contains(addr) {
		return nil, fmt.Errorf("%w: %v", ErrNotInSubnet, addr)
	}
	if _, exists := n.hosts[addr]; exists {
		return nil, fmt.Errorf("%w: %v", ErrAddrInUse, addr)
	}
	h := &Host{addr: addr, name: name, network: n, inside: true}
	n.hosts[addr] = h
	return h, nil
}

// AddInternetHost attaches an external host at addr.
func (n *Network) AddInternetHost(name string, addr packet.Addr) (*Host, error) {
	if n.Contains(addr) {
		return nil, fmt.Errorf("%w: %v", ErrInSubnet, addr)
	}
	if _, exists := n.remote[addr]; exists {
		return nil, fmt.Errorf("%w: %v", ErrAddrInUse, addr)
	}
	h := &Host{addr: addr, name: name, network: n, inside: false}
	n.remote[addr] = h
	return h, nil
}

// InjectIncoming presents an externally generated packet (e.g. from an
// attack.Stream) at the edge router's upstream interface at the current
// simulation time. It returns the filter verdict.
func (n *Network) InjectIncoming(pkt packet.Packet) filtering.Verdict {
	pkt.Time = n.sim.Now()
	pkt.Dir = packet.Incoming
	return n.deliverIncoming(pkt)
}

// route classifies a packet sent by from and moves it through the
// topology.
func (n *Network) route(pkt packet.Packet, from *Host) {
	switch {
	case from.inside && n.Contains(pkt.Tuple.Dst):
		// Intra-network traffic never crosses the edge router; the
		// filter cannot see it (a §5.2 caveat the worm example
		// demonstrates).
		n.deliverLocal(pkt)
	case from.inside:
		pkt.Dir = packet.Outgoing
		if n.filter != nil {
			// Outgoing packets always pass; processing marks the
			// bitmap.
			n.filter.Process(pkt)
		}
		n.stats.OutForwarded++
		n.deliverRemote(pkt)
	default:
		pkt.Dir = packet.Incoming
		// WAN propagation happens before the edge router sees the
		// packet.
		n.sim.After(WANDelay, func() {
			p := pkt
			p.Time = n.sim.Now()
			n.deliverIncoming(p)
		})
	}
}

// deliverIncoming runs the filter and, on Pass, delivers to the inside
// host.
func (n *Network) deliverIncoming(pkt packet.Packet) filtering.Verdict {
	v := filtering.Pass
	if n.filter != nil {
		v = n.filter.Process(pkt)
	}
	if v == filtering.Drop {
		n.stats.InDropped++
		return v
	}
	n.stats.InForwarded++
	delay := LANDelay
	if n.inbound != nil {
		// The admitted packet still has to cross the bottleneck link.
		wire, ok := n.inbound.transmit(n.sim.Now(), pkt.Length)
		if !ok {
			return v // admitted by the filter but lost to congestion
		}
		delay += wire
	}
	dst, ok := n.hosts[pkt.Tuple.Dst]
	if !ok {
		n.stats.InNoRoute++
		return v
	}
	n.sim.After(delay, func() {
		p := pkt
		p.Time = n.sim.Now()
		dst.deliver(n.sim, p)
	})
	return v
}

// deliverLocal moves an intra-network packet host-to-host.
func (n *Network) deliverLocal(pkt packet.Packet) {
	dst, ok := n.hosts[pkt.Tuple.Dst]
	if !ok {
		return
	}
	n.sim.After(LANDelay, func() {
		p := pkt
		p.Time = n.sim.Now()
		dst.deliver(n.sim, p)
	})
}

// deliverRemote moves an outgoing packet to its Internet destination.
func (n *Network) deliverRemote(pkt packet.Packet) {
	dst, ok := n.remote[pkt.Tuple.Dst]
	if !ok {
		return
	}
	n.sim.After(WANDelay, func() {
		p := pkt
		p.Time = n.sim.Now()
		dst.deliver(n.sim, p)
	})
}

func (h *Host) deliver(sim *Simulator, pkt packet.Packet) {
	h.received++
	if h.OnPacket != nil {
		h.OnPacket(sim, h, pkt)
	}
}
