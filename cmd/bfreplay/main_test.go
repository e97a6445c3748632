package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bitmapfilter/internal/capture"
	"bitmapfilter/internal/core"
	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/flowtable"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/pcap"
	"bitmapfilter/internal/trafficgen"
)

func TestParseSubnets(t *testing.T) {
	got, err := parseSubnets("10.10.0.0/24, 192.168.1.0/28")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("%d subnets", len(got))
	}
	if got[0] != packet.PrefixFrom(packet.AddrFrom4(10, 10, 0, 0), 24) {
		t.Errorf("subnet 0 = %v", got[0])
	}
	if got[1] != packet.PrefixFrom(packet.AddrFrom4(192, 168, 1, 0), 28) {
		t.Errorf("subnet 1 = %v", got[1])
	}
}

func TestParseSubnetsErrors(t *testing.T) {
	bad := []string{
		"10.10.0.0",       // no prefix length
		"10.10.0.0/33",    // bad length
		"10.10.0.0/x",     // non-numeric length
		"10.10.0/24",      // three octets
		"10.10.0.300/24",  // octet out of range
		"10.10.0.z/24",    // non-numeric octet
		"10.0.0.0/24,bad", // second entry bad
		"10.10.0.5/24",    // host bits set: a typo, not a subnet
		"",                // no subnet at all
		"10.0.0.0/24,",    // an empty entry
	}
	for _, in := range bad {
		if _, err := parseSubnets(in); err == nil {
			t.Errorf("parseSubnets(%q) accepted", in)
		}
	}
}

var subnet = packet.PrefixFrom(packet.AddrFrom4(10, 0, 0, 0), 24)

// writeCapture writes recs as a pcap capture and returns its bytes.
func writeCapture(t *testing.T, recs []pcap.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := w.WriteRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// encodeAll frames pkts, one whole record each.
func encodeAll(t *testing.T, pkts []packet.Packet) []pcap.Record {
	t.Helper()
	recs := make([]pcap.Record, len(pkts))
	for i, p := range pkts {
		frame, err := packet.Encode(p)
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = pcap.Record{Time: p.Time, Data: frame}
	}
	return recs
}

// runOn writes capture to a file and runs the command on it with args,
// returning what it printed with the file's path cut out.
func runOn(t *testing.T, trace []byte, args ...string) (string, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.pcap")
	if err := os.WriteFile(path, trace, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run(append([]string{"-in", path}, args...), &out)
	return strings.ReplaceAll(out.String(), path, "t.pcap"), err
}

func replaySource(t *testing.T, trace []byte) capture.Source {
	t.Helper()
	src, err := capture.NewReplayBytes(trace, 1)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// recorder is a filter that keeps what it was asked and what it answered:
// the packets of a replay, in the order the filter saw them.
type recorder struct {
	filtering.PacketFilter
	pkts     []packet.Packet
	verdicts []filtering.Verdict
}

func (r *recorder) Process(pkt packet.Packet) filtering.Verdict {
	v := r.PacketFilter.Process(pkt)
	r.pkts, r.verdicts = append(r.pkts, pkt), append(r.verdicts, v)
	return v
}

func smallFilter() *core.Filter {
	return core.MustNew(
		core.WithOrder(12), core.WithVectors(4), core.WithHashes(3),
		core.WithRotateEvery(5*time.Second))
}

// TestRunRequiresSubnets: there is no replay without client subnets. The
// flag's empty value means the generator's campus subnets, by which a
// bftrace capture classifies; a value that names no subnet is refused.
func TestRunRequiresSubnets(t *testing.T) {
	cfg := trafficgen.DefaultConfig()
	cfg.Duration = 5 * time.Second
	gen, err := trafficgen.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var pkts []packet.Packet
	gen.Drain(func(p packet.Packet) { pkts = append(pkts, p) })
	trace := writeCapture(t, encodeAll(t, pkts))

	out, err := runOn(t, trace)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "(0 skipped)") || strings.Contains(out, "outgoing:  0\n") {
		t.Errorf("campus capture under the default subnets:\n%s", out)
	}
	for _, bad := range []string{",", " ", "10.0.0.0/24,,"} {
		if out, err := runOn(t, trace, "-subnets", bad); err == nil {
			t.Errorf("-subnets %q accepted:\n%s", bad, out)
		}
	}
}

// TestRunBadCapture: what is not a capture is an error, not an empty
// report — no file, no magic, and a record torn mid-stream alike.
func TestRunBadCapture(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-in", filepath.Join(t.TempDir(), "absent.pcap")}, &out); err == nil {
		t.Error("missing file accepted")
	}
	if err := run(nil, &out); err == nil {
		t.Error("no -in accepted")
	}
	if out, err := runOn(t, make([]byte, 24)); err == nil {
		t.Errorf("bad magic accepted:\n%s", out)
	}
	whole := writeCapture(t, encodeAll(t, []packet.Packet{{
		Time:  time.Second,
		Tuple: packet.Tuple{Src: packet.AddrFrom4(10, 0, 0, 5), Dst: 1, SrcPort: 2, DstPort: 3, Proto: packet.TCP},
		Dir:   packet.Outgoing, Length: 60,
	}}))
	if out, err := runOn(t, whole[:len(whole)-7], "-subnets", "10.0.0.0/24"); err == nil || out != "" {
		t.Errorf("torn record: err %v, output:\n%s", err, out)
	}
	if _, err := runOn(t, whole, "-filter", "nonesuch"); err == nil {
		t.Error("unknown filter accepted")
	}
}

func TestReplayClassifiesAndFilters(t *testing.T) {
	client := packet.AddrFrom4(10, 0, 0, 5)
	server := packet.AddrFrom4(198, 51, 100, 7)
	attacker := packet.AddrFrom4(203, 0, 113, 9)
	// Every Dir below is the opposite of the truth: the capture's MACs say
	// nothing, the subnets decide.
	pkts := []packet.Packet{
		{ // outgoing request
			Time: time.Second,
			Tuple: packet.Tuple{Src: client, Dst: server,
				SrcPort: 4000, DstPort: 80, Proto: packet.TCP},
			Dir: packet.Incoming, Flags: packet.SYN, Length: 60,
		},
		{ // matching reply: passes
			Time: 2 * time.Second,
			Tuple: packet.Tuple{Src: server, Dst: client,
				SrcPort: 80, DstPort: 4000, Proto: packet.TCP},
			Dir: packet.Outgoing, Flags: packet.SYN | packet.ACK, Length: 60,
		},
		{ // unsolicited probe: drops
			Time: 3 * time.Second,
			Tuple: packet.Tuple{Src: attacker, Dst: client,
				SrcPort: 6666, DstPort: 445, Proto: packet.TCP},
			Dir: packet.Outgoing, Flags: packet.SYN, Length: 60,
		},
	}
	trace := writeCapture(t, encodeAll(t, pkts))
	for filter, name := range map[string]string{
		"bitmap": "bitmap{4x12,m=3,dt=5s} (2048 bytes of state)",
		"spi":    "spi-hashlist (262174 bytes of state)",
	} {
		out, err := runOn(t, trace, "-subnets", "10.0.0.0/24", "-order", "12", "-filter", filter, "-stats")
		if err != nil {
			t.Fatal(err)
		}
		want := "capture:   t.pcap (1s .. 3s)\n" +
			"filter:    " + name + "\n" +
			"frames:    3 (0 skipped)\n" +
			"outgoing:  1\n" +
			"incoming:  2  passed 1  dropped 1  (drop rate 50.000%)\n" +
			"lifetimes: 0 connections, q90 0.0s, q95 0.0s, >515s 100.000%\n" +
			"delays:    1 measured, q95 1.00s, q99 1.00s\n"
		if out != want {
			t.Errorf("-filter %s printed:\n%s\nwant:\n%s", filter, out, want)
		}
	}
}

func TestReplaySkipsForeignAndGarbage(t *testing.T) {
	// One transit packet (neither end inside) plus one garbage record.
	transit := packet.Packet{
		Time: time.Second,
		Tuple: packet.Tuple{
			Src: packet.AddrFrom4(203, 0, 113, 9), Dst: packet.AddrFrom4(198, 51, 100, 7),
			SrcPort: 1, DstPort: 2, Proto: packet.TCP},
		Dir: packet.Incoming, Length: 60,
	}
	recs := append(encodeAll(t, []packet.Packet{transit}), pcap.Record{Time: 2 * time.Second, Data: []byte{1, 2, 3}})
	trace := writeCapture(t, recs)

	rec := &recorder{PacketFilter: smallFilter()}
	s, _, err := replay(replaySource(t, trace), rec, []packet.Prefix{subnet}, false)
	if err != nil {
		t.Fatal(err)
	}
	if s.Frames != 2 || s.Unrouted != 1 || s.DecodeErrors[0] != 1 || s.Outgoing+s.Incoming != 0 || len(rec.pkts) != 0 {
		t.Errorf("frames=%d unrouted=%d truncated=%d judged=%d, filter saw %d", s.Frames, s.Unrouted, s.DecodeErrors[0], s.Outgoing+s.Incoming, len(rec.pkts))
	}
	out, err := runOn(t, trace, "-subnets", "10.0.0.0/24")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "frames:    2 (2 skipped)\n") || !strings.Contains(out, "(drop rate 0.000%)") {
		t.Errorf("printed:\n%s", out)
	}
}

// TestReplayTruncatedRecords: snapLen-truncated captures must be counted,
// and frames that still decode (the cut fell beyond the IP datagram, e.g.
// an Ethernet trailer) must be judged at their original wire length.
func TestReplayTruncatedRecords(t *testing.T) {
	full := packet.Packet{
		Time: time.Second,
		Tuple: packet.Tuple{Src: packet.AddrFrom4(10, 0, 0, 5), Dst: packet.AddrFrom4(198, 51, 100, 7),
			SrcPort: 4000, DstPort: 80, Proto: packet.TCP},
		Dir: packet.Outgoing, Flags: packet.SYN, Length: 60,
	}
	frame, err := packet.Encode(full)
	if err != nil {
		t.Fatal(err)
	}
	trace := writeCapture(t, []pcap.Record{
		// Whole frame captured, but the wire carried 1514 bytes (the
		// snapshot cut a trailer the IP header does not cover):
		// decodable, judged at OrigLen.
		{Time: full.Time, Data: frame, OrigLen: 1514},
		// Cut mid-datagram: truncated and undecodable.
		{Time: 2 * time.Second, Data: frame[:40], OrigLen: len(frame)},
	})

	rec := &recorder{PacketFilter: smallFilter()}
	s, obs, err := replay(replaySource(t, trace), rec, []packet.Prefix{subnet}, false)
	if err != nil {
		t.Fatal(err)
	}
	if s.Frames != 2 || s.Truncated != 2 || s.Outgoing != 1 || s.Incoming != 0 {
		t.Errorf("frames=%d truncated=%d out=%d in=%d, want 2/2/1/0", s.Frames, s.Truncated, s.Outgoing, s.Incoming)
	}
	if len(rec.pkts) != 1 || rec.pkts[0].Length != 1514 {
		t.Errorf("filter saw %+v, want one packet of 1514 bytes", rec.pkts)
	}
	if obs.first != time.Second || obs.last != time.Second {
		t.Errorf("bounds %v .. %v, want those of the one judged packet", obs.first, obs.last)
	}
}

// End-to-end: generate a synthetic trace, export to pcap, replay, and
// require of the filter behind the pump — however many workers decoded for
// it — exactly the packets, in exactly the order, with exactly the
// verdicts, of direct per-packet processing; the Figure 2 trackers saw the
// same stream.
func TestReplayMatchesDirectProcessing(t *testing.T) {
	cfg := trafficgen.DefaultConfig()
	cfg.Duration = 90 * time.Second
	cfg.ConnRate = 15
	gen, err := trafficgen.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var pkts []packet.Packet
	gen.Drain(func(p packet.Packet) {
		p.Time = p.Time.Truncate(time.Microsecond) // what a pcap record keeps
		pkts = append(pkts, p)
	})
	trace := writeCapture(t, encodeAll(t, pkts))

	for name, mk := range map[string]func() filtering.PacketFilter{
		"bitmap": func() filtering.PacketFilter { return core.MustNew(core.WithOrder(16), core.WithSeed(1)) },
		"spi":    func() filtering.PacketFilter { return flowtable.NewHashList() },
	} {
		direct := mk()
		rec := &recorder{PacketFilter: mk()}
		s, obs, err := replay(replaySource(t, trace), rec, cfg.Subnets, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.pkts) != len(pkts) {
			t.Fatalf("%s: filter saw %d packets of %d", name, len(rec.pkts), len(pkts))
		}
		for i, p := range pkts {
			if rec.pkts[i] != p {
				t.Fatalf("%s: packet %d: filter saw %+v, capture holds %+v", name, i, rec.pkts[i], p)
			}
			if want := direct.Process(p); rec.verdicts[i] != want {
				t.Fatalf("%s: packet %d: verdict %v, direct %v", name, i, rec.verdicts[i], want)
			}
		}
		if dc := direct.Counters(); s.Outgoing != dc.OutPackets || s.Incoming != dc.InPackets ||
			s.Passed != dc.InPassed || s.Dropped != dc.InDropped || s.Frames != uint64(len(pkts)) {
			t.Errorf("%s: pump tallied %d frames %d/%d/%d/%d, direct %+v", name, s.Frames, s.Outgoing, s.Incoming, s.Passed, s.Dropped, dc)
		}
		if dc := direct.Counters(); dc.InPackets == 0 || dc.DropRate() > 0.05 {
			t.Errorf("%s: in=%d droprate=%v on legitimate traffic", name, dc.InPackets, dc.DropRate())
		}
		if obs.first != pkts[0].Time || obs.last != pkts[len(pkts)-1].Time {
			t.Errorf("%s: bounds %v .. %v, want %v .. %v", name, obs.first, obs.last, pkts[0].Time, pkts[len(pkts)-1].Time)
		}
		if obs.lives.Count() == 0 || obs.delays.N() == 0 {
			t.Errorf("%s: trackers saw %d lifetimes, %d delays", name, obs.lives.Count(), obs.delays.N())
		}
	}
}
