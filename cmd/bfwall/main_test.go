package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bitmapfilter/internal/capture"
	"bitmapfilter/internal/core"
	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/pump"
)

func TestParseSubnets(t *testing.T) {
	got, err := parseSubnets("10.0.0.0/8, 192.168.1.0/24")
	if err != nil || len(got) != 2 {
		t.Fatalf("parseSubnets: %v %v", got, err)
	}
	if got[1].Bits != 24 {
		t.Errorf("bits = %d", got[1].Bits)
	}
	if _, err := parseSubnets("not-a-cidr"); err == nil {
		t.Error("garbage accepted")
	}
}

// TestFlagSurface pins what an operator can set: the flag lines of
// `bfwall -h`, name, type, help and default, are testdata/flags.golden, so
// a knob is added or dropped only as a diff someone reviews.
func TestFlagSurface(t *testing.T) {
	const golden = "testdata/flags.golden"
	usage, err := os.CreateTemp(t.TempDir(), "usage")
	if err != nil {
		t.Fatal(err)
	}
	defer usage.Close()
	stderr := os.Stderr // where the flag package prints usage
	os.Stderr = usage
	err = run(context.Background(), []string{"-h"}, io.Discard)
	os.Stderr = stderr
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: %v", err)
	}
	text, err := os.ReadFile(usage.Name())
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, line := range strings.SplitAfter(string(text), "\n") {
		if strings.HasPrefix(line, " ") { // a flag's line or its help's
			got.WriteString(line)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("bfwall -h differs from %s; if the change is meant, regenerate it with\n\tgo run ./cmd/bfwall -h 2>&1 | grep '^ ' > cmd/bfwall/%s\ngot:\n%s\nwant:\n%s",
			golden, golden, got.String(), want)
	}
}

// TestBenchEndToEnd runs the full wire path — synthesize, encode, replay
// through zero-copy decode and the batch data plane — and checks the
// report: the scan must be overwhelmingly dropped while the run
// saturates a trivial target.
func TestBenchEndToEnd(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-bench", "-target", "1",
		"-scan-pps", "20000", "-conn-rate", "10", "-gen-duration", "500ms",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	report := out.String()
	if !strings.Contains(report, "SATURATED") {
		t.Errorf("no saturation verdict in report:\n%s", report)
	}
	if !strings.Contains(report, "decode errors: 0") {
		t.Errorf("decode errors on a clean synthetic trace:\n%s", report)
	}
	if strings.Contains(report, "NOT saturated") {
		t.Errorf("1 pps target not saturated:\n%s", report)
	}
}

// TestBenchReportFormat pins the -bench report line by line: bench/ parses the
// first line and the verdict lines by prefix; the setup line is the start-up
// before the first frame, load and build, then the bitmap's size and how
// much of the process is on huge pages ("n/a" where that cannot be read);
// and the serial-stage line is the
// pump's two serial terms per frame — sourceBusy and commitBusy over frames —
// beside W, then its parallel terms, decode and hash and one per lane.
func TestBenchReportFormat(t *testing.T) {
	snap := pump.Snapshot{
		Frames: 4_000_000, Unrouted: 2, Truncated: 3,
		Outgoing: 1_800_000, Incoming: 2_199_990, Passed: 2_150_000, Dropped: 49_990,
		LatencyP50: 40 * time.Microsecond, LatencyP99: 95 * time.Microsecond,
		Workers: 2, SourceBusy: 60 * time.Millisecond, CommitBusy: 510 * time.Millisecond,
		DecodeBusy: 120 * time.Millisecond, HashBusy: 81 * time.Millisecond,
		FilterMemory: 128 << 20,
	}
	snap.DecodeErrors[0] = 5
	setup := setupTimes{how: "mapped", bytes: 89 << 20, load: 1340 * time.Microsecond, build: 420 * time.Microsecond, huge: 126 << 20}
	var out bytes.Buffer
	printBenchReport(&out, snap, 800*time.Millisecond, 500_000, setup)
	want := `bfwall bench: 4000000 frames in 800ms wall (5000000 pps)
  setup: load 1.3 ms (mapped, 89.0 MiB), build 0.4 ms, bitmap 128.0 MiB, 126.0 MiB on huge pages
  decode errors: 5, unrouted: 2, truncated: 3
  verdicts: out=1800000 in=2199990 pass=2150000 drop=49990
  serial stages: read 15.0 ns/frame, commit 127.5 ns/frame (W=2); parallel: decode 30.0, hash 20.2 ns/frame
  per-packet latency: p50=40µs p99=95µs
  target 500000 pps: SATURATED (10.00x)
`
	if got := out.String(); got != want {
		t.Errorf("report:\n%s\nwant:\n%s", got, want)
	}
	// Lanes: one parallel term each.
	out.Reset()
	snap.HashBusy = 0
	snap.Lanes = []pump.LaneSnapshot{{Busy: 160 * time.Millisecond}, {Busy: 150 * time.Millisecond}}
	printBenchReport(&out, snap, 800*time.Millisecond, 500_000, setup)
	if line := "  serial stages: read 15.0 ns/frame, commit 127.5 ns/frame (W=2); parallel: decode 30.0, hash 0.0, lane0 40.0, lane1 37.5 ns/frame\n"; !strings.Contains(out.String(), line) {
		t.Errorf("laned report:\n%s\nwant the line:\n%s", out.String(), line)
	}
	// No frames: no division by zero.
	out.Reset()
	printBenchReport(&out, pump.Snapshot{Workers: 1}, time.Second, 1, setupTimes{how: "read", huge: -1})
	for _, line := range []string{
		"  setup: load 0.0 ms (read, 0.0 MiB), build 0.0 ms, bitmap 0.0 MiB, n/a on huge pages\n",
		"  serial stages: read 0.0 ns/frame, commit 0.0 ns/frame (W=1); parallel: decode 0.0, hash 0.0 ns/frame\n",
	} {
		if !strings.Contains(out.String(), line) {
			t.Errorf("empty run's report:\n%s\nwant the line:\n%s", out.String(), line)
		}
	}
}

// TestAnonHugeBytes reads AnonHugePages out of an smaps_rollup file, and
// -1 from a file without the line or no file at all.
func TestAnonHugeBytes(t *testing.T) {
	dir := t.TempDir()
	rollup := filepath.Join(dir, "smaps_rollup")
	if err := os.WriteFile(rollup, []byte("Rss:              205144 kB\nAnonymous:        134132 kB\nAnonHugePages:    131072 kB\nShmemPmdMapped:        0 kB\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := anonHugeBytes(rollup); got != 128<<20 {
		t.Errorf("anonHugeBytes = %d, want %d", got, 128<<20)
	}
	noLine := filepath.Join(dir, "no_line")
	if err := os.WriteFile(noLine, []byte("Rss:              205144 kB\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{noLine, filepath.Join(dir, "missing")} {
		if got := anonHugeBytes(path); got != -1 {
			t.Errorf("anonHugeBytes(%s) = %d, want -1", filepath.Base(path), got)
		}
	}
}

// reportHook is run's stdout: when the bench report starts to arrive it
// calls onReport, once.
type reportHook struct {
	bytes.Buffer
	onReport func()
}

func (h *reportHook) Write(p []byte) (int, error) {
	if h.onReport != nil && bytes.Contains(p, []byte("bfwall bench:")) {
		h.onReport()
		h.onReport = nil
	}
	return h.Buffer.Write(p)
}

// TestBenchCPUProfile: -cpuprofile over the synthesized trace leaves a
// profile with something in it, and leaves it whole before the report is
// printed — `bfwall -bench -cpuprofile f | head -1` is killed by SIGPIPE
// on that print, and a profile that was still open then would not parse. A
// CPU profile is a gzip stream: a torn one does not decompress to its end.
func TestBenchCPUProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.prof")
	var atReport []byte
	out := reportHook{onReport: func() { atReport, _ = os.ReadFile(path) }}
	err := run(context.Background(), []string{
		"-bench", "-target", "1", "-cpuprofile", path,
		"-scan-pps", "20000", "-conn-rate", "10", "-gen-duration", "500ms", "-loops", "20",
	}, &out)
	if err != nil && strings.Contains(err.Error(), "already in use") {
		t.Skip("the test binary is itself being profiled:", err)
	}
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(atReport))
	if err != nil {
		t.Fatalf("the profile as it was when the report was printed (%d bytes): %v", len(atReport), err)
	}
	if body, err := io.ReadAll(zr); err != nil || len(body) == 0 {
		t.Fatalf("the profile as it was when the report was printed: %d bytes inflated, %v", len(body), err)
	}
	if final, err := os.ReadFile(path); err != nil || !bytes.Equal(final, atReport) {
		t.Errorf("the profile changed after the report was printed: %d bytes then, %d now (%v)", len(atReport), len(final), err)
	}

	// A profile that cannot be started is an error before the pump runs, and
	// no file.
	missing := filepath.Join(t.TempDir(), "no-such-dir", "cpu.prof")
	if err := run(context.Background(), []string{"-bench", "-cpuprofile", missing, "-gen-duration", "10ms"}, io.Discard); err == nil {
		t.Error("-cpuprofile into a missing directory: no error")
	}
}

// TestGenThenReplayFile round-trips the generated trace through disk:
// -gen writes a pcap, -pcap replays it with identical frame counts.
func TestGenThenReplayFile(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "scan.pcap")
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-gen", trace, "-scan-pps", "5000", "-conn-rate", "5", "-gen-duration", "200ms",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "wrote") {
		t.Fatalf("gen output: %s", out.String())
	}

	out.Reset()
	if err := run(context.Background(), []string{"-bench", "-pcap", trace, "-loops", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "bfwall bench:") {
		t.Fatalf("bench output: %s", out.String())
	}
}

// TestPcapReplayJudgesEveryFrame: a file can be made to wait, so a -pcap run
// with default flags — no -bench, no -queue — is back-pressured, never shed:
// every frame of the trace is read and judged. (With the overload queue on by
// default for every source, an unpaced replay of this trace shed most of it
// and the verdict totals were wrong.)
func TestPcapReplayJudgesEveryFrame(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "scan.pcap")
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-gen", trace, "-scan-pps", "400000", "-conn-rate", "50", "-gen-duration", "200ms",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var written uint64
	if _, err := fmt.Sscanf(out.String(), "bfwall: wrote %d frames", &written); err != nil || written == 0 {
		t.Fatalf("gen output %q: %v", out.String(), err)
	}

	out.Reset()
	if err := run(context.Background(), []string{"-pcap", trace}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "shed") {
		t.Errorf("a replayed file was shed:\n%s", out.String())
	}
	var frames, outgoing, incoming, passed, dropped, decErrs uint64
	if _, err := fmt.Sscanf(out.String(), "bfwall: %d frames, %d out / %d in (%d passed, %d dropped), %d decode errors",
		&frames, &outgoing, &incoming, &passed, &dropped, &decErrs); err != nil {
		t.Fatalf("exit line: %v\n%s", err, out.String())
	}
	if frames != written || outgoing+incoming != written || passed+dropped != incoming || decErrs != 0 {
		t.Errorf("%d frames written, exit line: %s", written, out.String())
	}
}

// TestTenantFleetReplay drives the pump against a multi-tenant data
// plane, with the tenants' prefixes taking over subnet classification.
func TestTenantFleetReplay(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-bench", "-tenants", writeFleet(t, t.TempDir(), fleetJSON),
		"-scan-pps", "5000", "-conn-rate", "5", "-gen-duration", "200ms",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "bfwall bench:") {
		t.Fatalf("output: %s", out.String())
	}
}

// mustFilter builds a small single filter for pump-level tests.
func mustFilter(t *testing.T) filtering.BatchFilter {
	t.Helper()
	f, err := core.New(core.WithOrder(12), core.WithVectors(4), core.WithHashes(3),
		core.WithRotateEvery(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// refixIPChecksum recomputes the IPv4 header checksum (RFC 1071) after a
// test mutated header bytes.
func refixIPChecksum(frame []byte) {
	ip := frame[packet.EthernetHeaderLen:]
	ip[10], ip[11] = 0, 0
	var sum uint32
	for i := 0; i < packet.IPv4HeaderLen; i += 2 {
		sum += uint32(ip[i])<<8 | uint32(ip[i+1])
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	cs := ^uint16(sum)
	ip[10], ip[11] = byte(cs>>8), byte(cs)
}

func encodeFrame(t *testing.T, pkt packet.Packet) []byte {
	t.Helper()
	frame, err := packet.Encode(pkt)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestPumpClassifiesAndCounts drives hand-built frames through a
// Loopback source: an outgoing mark, its matching reply (pass), an
// unsolicited probe (drop), a fragment (decode error), garbage
// (decode error), and a transit frame (unrouted).
func TestPumpClassifiesAndCounts(t *testing.T) {
	client := packet.AddrFrom4(10, 0, 0, 5)
	server := packet.AddrFrom4(198, 51, 100, 7)
	attacker := packet.AddrFrom4(203, 0, 113, 9)
	tup := packet.Tuple{Src: client, Dst: server, SrcPort: 4000, DstPort: 80, Proto: packet.TCP}
	rev := packet.Tuple{Src: server, Dst: client, SrcPort: 80, DstPort: 4000, Proto: packet.TCP}

	outFrame := encodeFrame(t, packet.Packet{Time: time.Second, Tuple: tup,
		Dir: packet.Outgoing, Flags: packet.SYN, Length: 60})
	replyFrame := encodeFrame(t, packet.Packet{Time: 2 * time.Second, Tuple: rev,
		Dir: packet.Incoming, Flags: packet.SYN | packet.ACK, Length: 60})
	probeFrame := encodeFrame(t, packet.Packet{Time: 3 * time.Second,
		Tuple: packet.Tuple{Src: attacker, Dst: client, SrcPort: 6666, DstPort: 445, Proto: packet.TCP},
		Dir:   packet.Incoming, Flags: packet.SYN, Length: 60})
	transitFrame := encodeFrame(t, packet.Packet{Time: 4 * time.Second,
		Tuple: packet.Tuple{Src: attacker, Dst: server, SrcPort: 1, DstPort: 2, Proto: packet.TCP},
		Dir:   packet.Incoming, Length: 60})
	fragFrame := encodeFrame(t, packet.Packet{Time: 5 * time.Second, Tuple: rev,
		Dir: packet.Incoming, Length: 60})
	fragFrame[packet.EthernetHeaderLen+6] = 0x20 // MF: decoder must refuse it
	refixIPChecksum(fragFrame)                   // the mutation, not a checksum error, is under test
	garbage := []byte{1, 2, 3}

	subnets, err := parseSubnets("10.0.0.0/8")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("W=%d", workers), func(t *testing.T) {
			lb := capture.NewLoopback()
			for i, data := range [][]byte{outFrame, replyFrame, probeFrame, transitFrame, fragFrame, garbage} {
				if err := lb.WriteFrame(capture.Frame{Time: time.Duration(i+1) * time.Second, Data: data}); err != nil {
					t.Fatal(err)
				}
			}
			if err := lb.Close(); err != nil {
				t.Fatal(err)
			}
			p := pump.New(pump.Config{Source: lb, Filter: mustFilter(t), Subnets: subnets, Batch: 8, Workers: workers})
			if err := p.Run(); err != nil {
				t.Fatal(err)
			}

			got := renderStats(p.Snapshot(), time.Now(), time.Now())
			if got.Frames != 6 {
				t.Errorf("frames = %d, want 6", got.Frames)
			}
			if got.Outgoing != 1 {
				t.Errorf("outgoing = %d, want 1", got.Outgoing)
			}
			if got.Incoming != 2 {
				t.Errorf("incoming = %d, want 2", got.Incoming)
			}
			if got.Passed != 1 {
				t.Errorf("passed = %d, want 1 (the marked reply)", got.Passed)
			}
			if got.Dropped != 1 {
				t.Errorf("dropped = %d, want 1 (the unsolicited probe)", got.Dropped)
			}
			if got.Unrouted != 1 {
				t.Errorf("unrouted = %d, want 1 (the transit frame)", got.Unrouted)
			}
			if got.DecodeErrors["fragmented"] != 1 {
				t.Errorf("fragmented decode errors = %d, want 1", got.DecodeErrors["fragmented"])
			}
			if got.DecodeErrors["truncated"] != 1 {
				t.Errorf("truncated decode errors = %d, want 1 (the garbage frame)", got.DecodeErrors["truncated"])
			}
		})
	}
}

// TestMonitoringEndpoints exercises /healthz, /stats and /metrics off a
// populated snapshot.
func TestMonitoringEndpoints(t *testing.T) {
	snap := pump.Snapshot{Frames: 100, Incoming: 60, Dropped: 40, LatencyP50: time.Microsecond, LatencyP99: time.Microsecond, FilterMemory: 2048}
	for i, class := range pump.DecodeClasses {
		if class == "fragmented" {
			snap.DecodeErrors[i] = 3
		}
	}

	srv := httptest.NewServer(newMux(time.Now().Add(-time.Second), func() pump.Snapshot { return snap }, &controlPlane{}))
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	if body := get("/healthz"); !strings.Contains(body, "ok") {
		t.Errorf("/healthz: %q", body)
	}

	var stats statsSnapshot
	if err := json.Unmarshal([]byte(get("/stats")), &stats); err != nil {
		t.Fatalf("/stats JSON: %v", err)
	}
	if stats.Frames != 100 || stats.Dropped != 40 {
		t.Errorf("/stats frames=%d dropped=%d", stats.Frames, stats.Dropped)
	}
	if stats.DecodeErrors["fragmented"] != 3 {
		t.Errorf("/stats decode_errors = %v", stats.DecodeErrors)
	}
	if stats.LatencyP99Ns <= 0 {
		t.Errorf("/stats p99 = %d", stats.LatencyP99Ns)
	}
	if stats.PPS <= 0 {
		t.Errorf("/stats pps = %v", stats.PPS)
	}

	metrics := get("/metrics")
	for _, want := range []string{
		"bfwall_frames_total 100",
		`bfwall_decode_errors_total{class="fragmented"} 3`,
		`bfwall_verdicts_total{verdict="drop"} 40`,
		`bfwall_packet_latency_seconds{quantile="0.99"}`,
		"bfwall_filter_memory_bytes 2048",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestIfaceWithoutTagFails: the hermetic build must reject -iface with a
// clear error instead of silently reading nothing.
func TestIfaceWithoutTagFails(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"-iface", "eth0"}, &out)
	if err == nil || !strings.Contains(err.Error(), "afpacket") {
		t.Errorf("err = %v, want afpacket build-tag guidance", err)
	}
}
