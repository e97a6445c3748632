package netsim

import (
	"errors"
	"fmt"
	"time"

	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/packet"
)

// Topology models the full Figure 1 picture: an ISP as a tree of routers
// with the Internet at the root, client networks hanging off edge routers,
// and a bitmap filter installable on ANY router — "the bitmap filter can
// be installed at any location through which traffic from client networks
// must pass".
//
// A packet from one host to another follows the unique tree path between
// their attachment points. At every filtered router it crosses, the filter
// sees the packet with direction semantics relative to that router's
// subtree: leaving the subtree is Outgoing (marks), entering it is
// Incoming (checked). A filter on an edge router therefore protects one
// client network; the same filter moved to a core router protects the
// aggregate of everything beneath it, including traffic between sibling
// ISP customers.
type Topology struct {
	sim      *Simulator
	internet *RouterNode
	hosts    map[packet.Addr]*Host
	routers  map[string]*RouterNode
	// Every attached subnet with the router it hangs off, index-aligned,
	// and the table over them that edgeFor asks (recompiled on attach —
	// attachment is set-up, lookups are per packet per hop).
	attached []packet.Prefix
	edges    []*RouterNode
	subnets  *packet.PrefixTable
}

// HopDelay is the per-router-hop propagation latency inside the ISP.
const HopDelay = 2 * time.Millisecond

// Topology errors.
var (
	ErrDupRouter   = errors.New("netsim: router name already in use")
	ErrNoAttach    = errors.New("netsim: no attachment point for address")
	ErrOverlapping = errors.New("netsim: subnet overlaps an existing attachment")
)

// RouterNode is one router in the tree. The zero value is not usable;
// create routers through Topology.AddRouter.
type RouterNode struct {
	name     string
	topo     *Topology
	parent   *RouterNode // nil for the Internet root
	children []*RouterNode
	filter   filtering.PacketFilter
	stats    EdgeStats
}

// NewTopology returns a topology containing only the Internet root node.
func NewTopology(sim *Simulator) (*Topology, error) {
	if sim == nil {
		return nil, errors.New("netsim: nil simulator")
	}
	t := &Topology{
		sim:     sim,
		hosts:   make(map[packet.Addr]*Host),
		routers: make(map[string]*RouterNode),
		subnets: packet.NewPrefixTable(nil),
	}
	t.internet = &RouterNode{name: "internet", topo: t}
	t.routers["internet"] = t.internet
	return t, nil
}

// Internet returns the root node, where Internet hosts attach.
func (t *Topology) Internet() *RouterNode { return t.internet }

// Router looks up a router by name (ok is false if absent).
func (t *Topology) Router(name string) (*RouterNode, bool) {
	r, ok := t.routers[name]
	return r, ok
}

// AddRouter creates a router under parent (the Internet root if nil).
func (t *Topology) AddRouter(parent *RouterNode, name string) (*RouterNode, error) {
	if _, exists := t.routers[name]; exists {
		return nil, fmt.Errorf("%w: %q", ErrDupRouter, name)
	}
	if parent == nil {
		parent = t.internet
	}
	r := &RouterNode{name: name, topo: t, parent: parent}
	parent.children = append(parent.children, r)
	t.routers[name] = r
	return r, nil
}

// Name returns the router name.
func (r *RouterNode) Name() string { return r.name }

// Stats returns the router's filtering counters.
func (r *RouterNode) Stats() EdgeStats { return r.stats }

// SetFilter installs (or removes, with nil) a filter on the router.
func (r *RouterNode) SetFilter(f filtering.PacketFilter) { r.filter = f }

// Filter returns the router's filter (nil if none).
func (r *RouterNode) Filter() filtering.PacketFilter { return r.filter }

// AttachSubnet declares that prefix is directly attached to this router.
func (r *RouterNode) AttachSubnet(prefix packet.Prefix) error {
	if r == r.topo.internet {
		return errors.New("netsim: cannot attach a client subnet to the internet root")
	}
	t := r.topo
	// Prefix against prefix, not an address lookup: a set-up-time scan.
	for i, s := range t.attached {
		if s.Contains(prefix.Base) || prefix.Contains(s.Base) {
			return fmt.Errorf("%w: %v vs %v on %s", ErrOverlapping, prefix, s, t.edges[i].name)
		}
	}
	t.attached = append(t.attached, prefix)
	t.edges = append(t.edges, r)
	t.subnets = packet.NewPrefixTable(t.attached)
	return nil
}

// AddHost attaches a host. Addresses inside an attached subnet land on
// that subnet's router; all other addresses are Internet hosts at the
// root.
func (t *Topology) AddHost(name string, addr packet.Addr) (*Host, error) {
	if _, exists := t.hosts[addr]; exists {
		return nil, fmt.Errorf("%w: %v", ErrAddrInUse, addr)
	}
	h := &Host{addr: addr, name: name, inside: t.edgeFor(addr) != t.internet}
	h.topo = t
	t.hosts[addr] = h
	return h, nil
}

// edgeFor returns the router an address attaches to (the Internet root if
// no attached subnet contains it).
func (t *Topology) edgeFor(addr packet.Addr) *RouterNode {
	if i := t.subnets.Lookup(addr); i >= 0 {
		return t.edges[i]
	}
	return t.internet
}

// inSubtree reports whether addr attaches at r or below it.
func (r *RouterNode) inSubtree(addr packet.Addr) bool {
	edge := r.topo.edgeFor(addr)
	for n := edge; n != nil; n = n.parent {
		if n == r {
			return true
		}
	}
	return false
}

// send routes one packet through the tree, applying filters along the
// path. Delivery (or a filter drop) is scheduled on the simulator.
func (t *Topology) send(pkt packet.Packet) {
	src := t.edgeFor(pkt.Tuple.Src)
	dst := t.edgeFor(pkt.Tuple.Dst)

	// Build the path src → LCA → dst.
	up := pathToRoot(src)
	down := pathToRoot(dst)
	lca := t.internet
	for len(up) > 0 && len(down) > 0 && up[len(up)-1] == down[len(down)-1] {
		lca = up[len(up)-1]
		up = up[:len(up)-1]
		down = down[:len(down)-1]
	}

	delay := 2 * LANDelay // host→edge plus edge→host
	hops := len(up) + len(down)
	if lca == t.internet {
		delay += WANDelay
	}
	delay += time.Duration(hops) * HopDelay

	// Filters on the upward leg see the packet leaving their subtree
	// (Outgoing); on the downward leg, entering (Incoming). The LCA's
	// own filter never triggers: the packet stays inside its subtree.
	for _, r := range up {
		if r == lca {
			break
		}
		r.stats.OutForwarded++
		if r.filter != nil {
			p := pkt
			p.Dir = packet.Outgoing
			r.filter.Process(p)
		}
	}
	for i := len(down) - 1; i >= 0; i-- {
		r := down[i]
		if r == lca {
			continue
		}
		p := pkt
		p.Dir = packet.Incoming
		if r.filter != nil {
			if r.filter.Process(p) == filtering.Drop {
				r.stats.InDropped++
				return
			}
		}
		r.stats.InForwarded++
	}

	dstHost, ok := t.hosts[pkt.Tuple.Dst]
	if !ok {
		return
	}
	t.sim.After(delay, func() {
		p := pkt
		p.Time = t.sim.Now()
		// Preserve the receiver-relative direction.
		if dstHost.inside {
			p.Dir = packet.Incoming
		} else {
			p.Dir = packet.Outgoing
		}
		dstHost.deliver(t.sim, p)
	})
}

// InjectFromInternet presents an attack packet at the Internet root and
// routes it toward its destination at the current simulation time.
func (t *Topology) InjectFromInternet(pkt packet.Packet) {
	pkt.Time = t.sim.Now()
	t.send(pkt)
}

func pathToRoot(r *RouterNode) []*RouterNode {
	var path []*RouterNode
	for n := r; n != nil; n = n.parent {
		path = append(path, n)
	}
	return path
}
