package bitmapfilter_test

import (
	"testing"
	"time"

	"bitmapfilter"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/xrand"
)

// wireTrace synthesizes one chunk of mixed traffic starting at index base:
// outgoing marks over fresh tuples, their incoming replies, and unsolicited
// incoming probes (the scan component), with timestamps advancing fast
// enough that a million-packet trace crosses many rotation boundaries.
func wireTrace(r *xrand.Rand, base, n int) []bitmapfilter.Packet {
	pkts := make([]bitmapfilter.Packet, 0, n)
	for i := base; len(pkts) < n; i++ {
		ts := time.Duration(i) * 20 * time.Microsecond
		tup := bitmapfilter.Tuple{
			Src:     bitmapfilter.AddrFrom4(10, byte(i>>16), byte(i>>8), byte(i)),
			Dst:     bitmapfilter.Addr(r.Uint32() | 1),
			SrcPort: uint16(1024 + i%60000),
			DstPort: 443,
			Proto:   bitmapfilter.TCP,
		}
		if i%8 == 7 {
			tup.Proto = bitmapfilter.UDP
		}
		length := 60 + int(r.Uint32()%1400)
		switch i % 4 {
		case 0: // outgoing mark
			pkts = append(pkts, bitmapfilter.Packet{
				Time: ts, Tuple: tup, Dir: bitmapfilter.Outgoing,
				Flags: bitmapfilter.ACK, Length: length,
			})
		case 1: // reply to the previous mark (same tuple family, reversed)
			pkts = append(pkts, bitmapfilter.Packet{
				Time: ts, Tuple: tup.Reverse(), Dir: bitmapfilter.Incoming,
				Flags: bitmapfilter.ACK, Length: length,
			})
		default: // unsolicited probe: the scan the filter exists to drop
			probe := bitmapfilter.Tuple{
				Src:     bitmapfilter.Addr(r.Uint32() | 1),
				Dst:     bitmapfilter.AddrFrom4(10, byte(r.Uint32()), byte(i>>8), byte(i)),
				SrcPort: uint16(1024 + i%60000),
				DstPort: uint16(1 + r.Uint32()%1024),
				Proto:   tup.Proto,
			}
			flags := bitmapfilter.SYN
			if probe.Proto == bitmapfilter.UDP {
				flags = 0
			}
			pkts = append(pkts, bitmapfilter.Packet{
				Time: ts, Tuple: probe, Dir: bitmapfilter.Incoming,
				Flags: flags, Length: length,
			})
		}
	}
	return pkts
}

// TestWireDifferentialMillion is the live packet plane's acceptance
// differential at scale: one million packets are encoded to raw frames and
// judged twice — once through the struct path (the packets as generated)
// and once through the wire path (encode → DecodeInto → verdict) — on
// identically seeded filters. The verdict streams must be byte-identical,
// on both the single and the 8-shard flavor, and every decoded packet must
// equal the one that was encoded. Any divergence between the decoder and
// the generated truth shows up here at a named packet index.
func TestWireDifferentialMillion(t *testing.T) {
	n := 1_000_000
	if testing.Short() {
		n = 65_536
	}
	const chunk = 4096

	type lane struct {
		name           string
		structF, wireF bitmapfilter.BatchFilter
		structV, wireV []bitmapfilter.Verdict
	}
	mk := func(name string, build func() (bitmapfilter.BatchFilter, error)) *lane {
		sf, err := build()
		if err != nil {
			t.Fatalf("%s struct filter: %v", name, err)
		}
		wf, err := build()
		if err != nil {
			t.Fatalf("%s wire filter: %v", name, err)
		}
		return &lane{name: name, structF: sf, wireF: wf}
	}
	lanes := []*lane{
		mk("single", func() (bitmapfilter.BatchFilter, error) {
			return bitmapfilter.New(bitmapfilter.WithOrder(16), bitmapfilter.WithSeed(99))
		}),
		mk("sharded8", func() (bitmapfilter.BatchFilter, error) {
			return bitmapfilter.NewSharded(8, bitmapfilter.WithOrder(13), bitmapfilter.WithSeed(99))
		}),
	}

	r := xrand.New(4242)
	frames := make([][]byte, chunk)
	decoded := make([]bitmapfilter.Packet, chunk)
	for base := 0; base < n; base += chunk {
		m := chunk
		if n-base < m {
			m = n - base
		}
		pkts := wireTrace(r, base, m)
		for i := range pkts {
			buf, err := packet.Encode(pkts[i])
			if err != nil {
				t.Fatalf("encode packet %d: %v", base+i, err)
			}
			frames[i] = buf
		}
		// The wire lane sees only the raw bytes plus the capture
		// timestamp, exactly like bfwall's pump.
		for i := 0; i < m; i++ {
			if err := bitmapfilter.DecodeInto(&decoded[i], frames[i]); err != nil {
				t.Fatalf("decode frame %d: %v", base+i, err)
			}
			decoded[i].Time = pkts[i].Time
			if decoded[i] != pkts[i] {
				t.Fatalf("decode frame %d: got %+v, want %+v", base+i, decoded[i], pkts[i])
			}
		}
		for _, l := range lanes {
			l.structV = l.structF.ProcessBatchInto(pkts, l.structV)
			l.wireV = l.wireF.ProcessBatchInto(decoded[:m], l.wireV)
			for i := range l.structV {
				if l.structV[i] != l.wireV[i] {
					t.Fatalf("%s: packet %d: struct verdict %v, wire verdict %v",
						l.name, base+i, l.structV[i], l.wireV[i])
				}
			}
		}
	}
}
