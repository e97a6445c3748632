package core

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"
	"time"

	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/xrand"
)

func TestSnapshotRoundTrip(t *testing.T) {
	f := small(WithSeed(9))
	r := xrand.New(4)
	now := time.Duration(0)
	for i := 0; i < 2000; i++ {
		now += time.Duration(r.Intn(20)) * time.Millisecond
		f.Process(outPkt(now, client, packet.Addr(r.Uint32()|1), uint16(1024+r.Intn(5000)), 80))
	}
	f.Process(inPkt(now, server, client, 80, 4000)) // some incoming counters

	var buf bytes.Buffer
	if err := f.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	g, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}

	if g.Order() != f.Order() || g.Vectors() != f.Vectors() || g.Hashes() != f.Hashes() {
		t.Error("configuration not restored")
	}
	if g.RotateEvery() != f.RotateEvery() {
		t.Error("rotation period not restored")
	}
	if g.Rotations() != f.Rotations() || g.Marks() != f.Marks() {
		t.Errorf("counters not restored: rot %d/%d marks %d/%d",
			g.Rotations(), f.Rotations(), g.Marks(), f.Marks())
	}
	if g.Counters() != f.Counters() {
		t.Errorf("packet counters not restored: %+v vs %+v", g.Counters(), f.Counters())
	}
	if g.Utilization() != f.Utilization() {
		t.Errorf("utilization %v vs %v", g.Utilization(), f.Utilization())
	}

	// Behavioral equivalence: both filters give identical verdicts on a
	// probe battery.
	for i := 0; i < 5000; i++ {
		tup := packet.Tuple{
			Src:     packet.Addr(r.Uint32() | 1),
			Dst:     client,
			SrcPort: uint16(1 + r.Intn(65535)),
			DstPort: uint16(1024 + r.Intn(5000)),
			Proto:   packet.TCP,
		}
		if f.WouldAdmit(tup) != g.WouldAdmit(tup) {
			t.Fatalf("verdict divergence on %v", tup)
		}
	}

	// Both continue identically through a rotation.
	later := now + 6*time.Second
	f.AdvanceTo(later)
	g.AdvanceTo(later)
	if f.Rotations() != g.Rotations() {
		t.Errorf("post-restore rotations diverge: %d vs %d", f.Rotations(), g.Rotations())
	}
	if f.Utilization() != g.Utilization() {
		t.Error("post-rotation utilization diverges")
	}
}

func TestSnapshotPreservesAdmissions(t *testing.T) {
	f := small()
	f.Process(outPkt(0, client, server, 4000, 80))

	var buf bytes.Buffer
	if err := f.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if v := g.Process(inPkt(time.Second, server, client, 80, 4000)); v != filtering.Pass {
		t.Error("restored filter dropped a known flow's reply")
	}
}

func TestSnapshotBadMagic(t *testing.T) {
	data := make([]byte, 200)
	if _, err := ReadSnapshot(bytes.NewReader(data)); !errors.Is(err, ErrSnapshotMagic) {
		t.Errorf("error = %v, want ErrSnapshotMagic", err)
	}
}

func TestSnapshotBadVersion(t *testing.T) {
	f := small()
	var buf bytes.Buffer
	if err := f.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[4] = 99 // version field
	if _, err := ReadSnapshot(bytes.NewReader(data)); !errors.Is(err, ErrSnapshotVersion) {
		t.Errorf("error = %v, want ErrSnapshotVersion", err)
	}
}

func TestSnapshotTruncated(t *testing.T) {
	f := small()
	var buf bytes.Buffer
	if err := f.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 10, buf.Len() / 2, buf.Len() - 1} {
		if _, err := ReadSnapshot(bytes.NewReader(buf.Bytes()[:n])); err == nil {
			t.Errorf("truncated snapshot (%d bytes) accepted", n)
		}
	}
}

func TestSnapshotCorruptIndex(t *testing.T) {
	f := small()
	var buf bytes.Buffer
	if err := f.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Idx field is the 8th uint32 (offset 28).
	data[28] = 0xff
	if _, err := ReadSnapshot(bytes.NewReader(data)); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Errorf("error = %v, want ErrSnapshotCorrupt", err)
	}
}

func TestSnapshotExtraOptionsApply(t *testing.T) {
	f := small()
	var buf bytes.Buffer
	if err := f.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// Re-attach an APD policy at restore time.
	g, err := ReadSnapshot(&buf, WithAPD(fixedPolicy{p: 0}))
	if err != nil {
		t.Fatal(err)
	}
	// p=0 APD admits unmatched packets: proves the policy took effect.
	if v := g.Process(inPkt(0, server, client, 80, 9999)); v != filtering.Pass {
		t.Error("APD option not applied on restore")
	}
}

// Property: any sequence of marks snapshots to a behaviourally identical
// filter (checked by replaying probes on both).
func TestSnapshotRoundTripProperty(t *testing.T) {
	fn := func(seed uint64, flowPorts []uint16) bool {
		f := MustNew(WithOrder(10), WithVectors(3), WithHashes(2),
			WithRotateEvery(time.Second), WithSeed(seed))
		now := time.Duration(0)
		for _, port := range flowPorts {
			now += 100 * time.Millisecond
			f.Process(outPkt(now, client, server, port, 80))
		}
		var buf bytes.Buffer
		if err := f.WriteSnapshot(&buf); err != nil {
			return false
		}
		g, err := ReadSnapshot(&buf)
		if err != nil {
			return false
		}
		for _, port := range flowPorts {
			tup := packet.Tuple{Src: server, Dst: client, SrcPort: 80, DstPort: port, Proto: packet.TCP}
			if f.WouldAdmit(tup) != g.WouldAdmit(tup) {
				return false
			}
		}
		return f.Utilization() == g.Utilization() && f.Marks() == g.Marks()
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestResetClearsEverything(t *testing.T) {
	f := small()
	f.Process(outPkt(0, client, server, 4000, 80))
	f.Process(inPkt(time.Second, server, client, 80, 9))
	f.AdvanceTo(6 * time.Second)
	f.Reset()
	if f.Utilization() != 0 || f.Marks() != 0 || f.Rotations() != 0 {
		t.Errorf("state after Reset: U=%v marks=%d rot=%d",
			f.Utilization(), f.Marks(), f.Rotations())
	}
	if f.Counters() != (filtering.Counters{}) {
		t.Errorf("counters after Reset: %+v", f.Counters())
	}
	// The rotation schedule continues: processing still works.
	f.Process(outPkt(7*time.Second, client, server, 4000, 80))
	if v := f.Process(inPkt(8*time.Second, server, client, 80, 4000)); v != filtering.Pass {
		t.Error("filter unusable after Reset")
	}
}

func TestSnapshotWriteError(t *testing.T) {
	f := small()
	if err := f.WriteSnapshot(failWriter{}); err == nil {
		t.Error("write error not propagated")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }
