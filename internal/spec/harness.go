// Package spec is the executable specification of the bitmap filter: a
// model of Algorithms 1 and 2 on sparse vectors, each the set of its set
// bits, with the §5.3 drop policies over a list of the packets observed
// (model.go, window.go), the groups of them shards and tenants are
// (group.go), and one op-sequence harness that every entry point of the real
// filter is checked against: Decode turns a fuzz input into ops, Run applies
// them to an entry point and to the model alike, and Seeds is the corpus
// tier-1 runs. The model shares no code with what it checks (DESIGN.md §6,
// The spec).
package spec

import (
	"flag"
	"testing"
	"time"

	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/xrand"
)

// RotateEvery is Δt for the filters the harness drives: a packet moves the
// trace clock by under 400 µs, so a rotation falls every few dozen packets,
// inside batches and chunks.
const RotateEvery = 10 * time.Millisecond

// Prefixes are the client networks of a fleet over the harness's traffic: a
// /8, a /16 carved out of it, and a third /16. Clients also live in
// 12.0.0.0/16, which nobody owns.
var Prefixes = []packet.Prefix{
	packet.PrefixFrom(packet.AddrFrom4(10, 0, 0, 0), 8),
	packet.PrefixFrom(packet.AddrFrom4(10, 1, 0, 0), 16),
	packet.PrefixFrom(packet.AddrFrom4(11, 0, 0, 0), 16),
}

// Kind is what an op does.
type Kind uint8

// The ops. The clock ones move the trace clock the packets after them
// carry; Jump also advances every filter to it (AdvanceTo).
const (
	Packets   Kind = iota // a batch of 1 to 256 packets
	Step                  // the clock forward, up to 2.5 Δt
	Back                  // the clock backward, up to 1.3 Δt
	Jump                  // the clock past 8 Δt, and every filter to it
	Rotate                // an explicit rotation of one member
	Restore               // snapshot, then restore
	Punch                 // a hole (§5.1)
	Rebalance             // every member advanced to the clock, some resized
	kinds
)

// Op is one step of a run.
type Op struct {
	Kind Kind
	Arg  byte            // Rotate: the member, modulo their count
	Now  time.Duration   // the trace clock after the op
	Pkts []packet.Packet // Packets
	Hole packet.Tuple    // Punch: {local, local port, remote, proto}
}

// Decode turns bytes into ops, two bytes an op: its kind (modulo the
// number of kinds) and its argument.
func Decode(data []byte) []Op {
	g := &gen{recent: make([]packet.Tuple, 0, 64)}
	var ops []Op
	for i := 0; i < len(data); i += 2 {
		op := Op{Kind: Kind(data[i] % byte(kinds))}
		if i+1 < len(data) {
			op.Arg = data[i+1]
		}
		arg := time.Duration(op.Arg)
		switch op.Kind {
		case Packets:
			g.r = xrand.New(uint64(i)<<8 | uint64(op.Arg))
			op.Pkts = g.packets(1 + int(op.Arg))
		case Step:
			g.now += arg * RotateEvery / 100
		case Back:
			g.now -= min(g.now, arg*RotateEvery/200)
		case Jump:
			g.now += (8 + arg) * RotateEvery
		case Punch:
			g.r = xrand.New(uint64(i)<<8 | uint64(op.Arg))
			op.Hole = packet.Tuple{Src: g.client(), SrcPort: uint16(g.r.Uint32()), Dst: g.stranger(), Proto: g.proto()}
			g.remember(op.Hole)
		}
		op.Now = g.now
		ops = append(ops, op)
	}
	return ops
}

// Seeds is the corpus: a run of every op between batches, a rebalance after
// a restore, and a long run of at least packets packets with every op now
// and then. A fuzzing run (-fuzz) starts from the first two alone, so that
// the inputs it mutates stay short enough to run by the hundred.
func Seeds(packets int) [][]byte {
	var mixed []byte
	for k := Kind(1); k < kinds; k++ {
		mixed = append(mixed, byte(Packets), 200, byte(k), 37*byte(k), byte(Packets), 31, byte(Packets), 33)
	}
	var restored []byte
	for _, k := range []Kind{Restore, Rebalance, Step, Restore, Rebalance, Step, Rebalance} {
		for i := 0; i < 12; i++ {
			restored = append(restored, byte(Packets), 255)
		}
		restored = append(restored, byte(k), 250)
	}
	var long []byte
	for n := 0; n < packets; n += 256 {
		long = append(long, byte(Packets), 255)
		if op := n / 256; op%16 == 15 {
			long = append(long, byte(1+op/16%int(kinds-1)), byte(op))
		}
	}
	if f := flag.Lookup("test.fuzz"); f != nil && f.Value.String() != "" {
		return [][]byte{mixed, restored}
	}
	return [][]byte{mixed, restored, long}
}

// Trace is n packets of Decode's traffic from time 0, drawn from seed.
func Trace(n int, seed uint64) []packet.Packet {
	return (&gen{r: xrand.New(seed), recent: make([]packet.Tuple, 0, 64)}).packets(n)
}

// gen is Decode's traffic: clients in four /16s, remotes above 128.0.0.0, and
// replies to the last 64 flows out (or holes punched).
type gen struct {
	r      *xrand.Rand
	now    time.Duration
	recent []packet.Tuple
}

func (g *gen) client() packet.Addr {
	nets := [...][2]byte{{10, 0}, {10, 1}, {11, 0}, {12, 0}}
	n := nets[g.r.Intn(len(nets))]
	return packet.AddrFrom4(n[0], n[1], byte(g.r.Intn(4)), byte(g.r.Intn(32)))
}

func (g *gen) stranger() packet.Addr { return packet.Addr(g.r.Uint32() | 1<<31) }

func (g *gen) proto() packet.Proto {
	if g.r.Bool(0.2) {
		return packet.UDP
	}
	return packet.TCP
}

func (g *gen) remember(tup packet.Tuple) {
	if len(g.recent) == cap(g.recent) {
		g.recent = g.recent[1:]
	}
	g.recent = append(g.recent, tup)
}

// packets is n packets: 40 % out, of flows from a pool of 8192, 30 % replies
// to recent flows (a fifth from another remote port), 30 % strangers in;
// a tenth of TCP packets SYN+ACK and a tenth FIN+ACK (signal packets, §5.3),
// a tenth RST.
func (g *gen) packets(n int) []packet.Packet {
	pkts := make([]packet.Packet, n)
	for i := range pkts {
		g.now += time.Duration(g.r.Intn(400)) * time.Microsecond
		p := packet.Packet{Time: g.now, Dir: packet.Incoming, Length: 60 + g.r.Intn(1400)}
		switch k := g.r.Intn(10); {
		case k < 4 || len(g.recent) == 0:
			server := packet.AddrFrom4(198, 51, 100, byte(1+g.r.Intn(4)))
			p.Dir, p.Tuple = packet.Outgoing, packet.Tuple{Src: g.client(), SrcPort: uint16(4000 + g.r.Intn(8)), Dst: server, DstPort: 443, Proto: g.proto()}
			g.remember(p.Tuple)
		case k < 7:
			p.Tuple = g.recent[g.r.Intn(len(g.recent))].Reverse()
			if g.r.Bool(0.2) {
				p.Tuple.SrcPort = uint16(g.r.Uint32())
			}
		default:
			p.Tuple = packet.Tuple{Src: g.stranger(), SrcPort: uint16(g.r.Uint32()), Dst: g.client(), DstPort: uint16(g.r.Uint32()), Proto: g.proto()}
		}
		if p.Tuple.Proto == packet.TCP {
			p.Flags = packet.ACK
			if k := g.r.Intn(10); k < 3 {
				p.Flags = [...]packet.Flags{packet.SYN | packet.ACK, packet.FIN | packet.ACK, packet.RST}[k]
			}
		}
		pkts[i] = p
	}
	return pkts
}

// State is what the harness compares of one filter, from its Stats: the
// geometry a resize changes, the clock, the marks, the counters and the APD
// drop probability at the filter's clock.
type State struct {
	Order                       uint
	Hashes, Idx                 int
	Now, Next                   time.Duration
	Rotations, Marks, APDSpared uint64
	Counters                    filtering.Counters
	DropProbability             float64
}

// States is each member's State, the counters of its retired filters
// folded in.
func (g *Group) States() []State {
	out := make([]State, len(g.Members))
	for i, f := range g.Members {
		out[i] = State{f.Order, f.Hashes, f.Idx, f.Now, f.Next, f.Rotations, f.Marks, f.APDSpared, f.Counters, f.APD.dropProbability(&f.window, f.Now)}
		out[i].Counters.Add(g.Retired[i])
	}
	return out
}

// Counters is the group's total: every member's, retired and unrouted packets included.
func (g *Group) Counters() filtering.Counters {
	total := g.Unrouted
	for _, st := range g.States() {
		total.Add(st.Counters)
	}
	return total
}

// Target is one entry point into the filter under test, built over members
// configured as the model's are.
type Target interface {
	// Judge judges a batch, a verdict per packet.
	Judge(pkts []packet.Packet) []filtering.Verdict
	AdvanceTo(now time.Duration)
	// Rotate rotates member i and reports whether the target can.
	Rotate(i int) bool
	// Restore replaces the filter by a restore of its snapshot, and
	// Rebalance advances every member to now and reports which it resized.
	// next is the batch the following op judges, if it judges one: an entry
	// point in two halves may hash it before the swap and judge it after.
	Restore(next []packet.Packet)
	Rebalance(now time.Duration, next []packet.Packet) (resized []int)
	Punch(hole packet.Tuple)
	States() []State
	Counters() filtering.Counters
}

// Run applies ops to target and model and fails t at the first difference
// in a verdict, a member's State or the total counters. after, if set, is
// called after every op with the op's index, to compare what only the caller
// sees.
func Run(t testing.TB, ops []Op, target Target, model *Group, after func(op int)) {
	t.Helper()
	for n, op := range ops {
		var next []packet.Packet
		if n+1 < len(ops) {
			next = ops[n+1].Pkts
		}
		switch op.Kind {
		case Packets:
			got := target.Judge(op.Pkts)
			for i, p := range op.Pkts {
				if want := model.Process(p); got[i] != want {
					t.Fatalf("op %d (%v), packet %d (%v): verdict %v, the model's %v", n, op.Kind, i, p, got[i], want)
				}
			}
		case Jump:
			target.AdvanceTo(op.Now)
			for _, f := range model.Members {
				f.Advance(op.Now)
			}
		case Rotate:
			if i := int(op.Arg) % len(model.Members); target.Rotate(i) {
				model.Members[i].Rotate()
			}
		case Restore:
			target.Restore(next)
			for _, f := range model.Members {
				f.Restore()
			}
		case Punch:
			target.Punch(op.Hole)
			if i := model.Route(op.Hole, packet.Outgoing); i >= 0 {
				model.Members[i].Mark(model.Members[i].Indexes(op.Hole, packet.Outgoing))
			}
		case Rebalance:
			for _, f := range model.Members {
				f.Advance(op.Now)
			}
			resized := target.Rebalance(op.Now, next)
			states := target.States()
			for _, i := range resized {
				model.Resize(i, op.Now, states[i].Order, states[i].Hashes)
			}
		}
		got, want := target.States(), model.States()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("op %d (%v): member %d\n  state %+v\n  model %+v", n, op.Kind, i, got[i], want[i])
			}
		}
		if got, want := target.Counters(), model.Counters(); got != want {
			t.Fatalf("op %d (%v): counters %+v, the model's %+v", n, op.Kind, got, want)
		}
		if after != nil {
			after(n)
		}
	}
}
