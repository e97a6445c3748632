package live

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"bitmapfilter/internal/core"
	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/packet"
)

// TestSnapshotPreservesClockOffset is the warm-restart property: the
// adapter back-dates its start time so the filter clock resumes exactly
// where the snapshot left it, and downtime neither ages nor extends the
// marks.
func TestSnapshotPreservesClockOffset(t *testing.T) {
	clock := newFakeClock()
	l := newLive(t, clock) // Δt = 5s, T_e = 20s

	l.Observe(tuple, packet.Outgoing, packet.SYN, 60)
	clock.Advance(3 * time.Second)

	var buf bytes.Buffer
	if err := l.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if got := l.Stats().Now; got != 3*time.Second {
		t.Fatalf("filter clock at snapshot = %v, want 3s", got)
	}

	// The daemon is down for 90s — far past T_e on the wall clock.
	clock.Advance(90 * time.Second)

	g, err := ReadSnapshot(bytes.NewReader(buf.Bytes()), nil, WithClock(clock))
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if got := g.Stats().Now; got != 3*time.Second {
		t.Errorf("filter clock after restore = %v, want 3s (downtime must not age marks)", got)
	}
	// The 3s-old flow is still established from the filter's perspective.
	if v := g.Observe(tuple.Reverse(), packet.Incoming, packet.ACK, 60); v != filtering.Pass {
		t.Error("established flow dropped after warm restart")
	}
	// Expiry still runs on schedule relative to the resumed clock: after
	// another T_e of wall time the mark is gone.
	clock.Advance(25 * time.Second)
	if v := g.Observe(tuple.Reverse(), packet.Incoming, packet.ACK, 60); v != filtering.Drop {
		t.Error("mark survived past T_e after restore")
	}
}

func TestSnapshotRoundTripThroughLive(t *testing.T) {
	clock := newFakeClock()
	l := newLive(t, clock)
	for i := 0; i < 100; i++ {
		tup := packet.Tuple{Src: client, Dst: server,
			SrcPort: uint16(2000 + i), DstPort: 80, Proto: packet.TCP}
		l.Observe(tup, packet.Outgoing, packet.SYN, 60)
	}
	before := l.Counters()

	var buf bytes.Buffer
	if err := l.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := ReadSnapshot(&buf, nil, WithClock(clock))
	if err != nil {
		t.Fatal(err)
	}
	if g.Counters() != before {
		t.Errorf("counters after restore %+v, want %+v", g.Counters(), before)
	}
	for i := 0; i < 100; i++ {
		tup := packet.Tuple{Src: server, Dst: client,
			SrcPort: 80, DstPort: uint16(2000 + i), Proto: packet.TCP}
		if v := g.Observe(tup, packet.Incoming, packet.ACK, 60); v != filtering.Pass {
			t.Fatalf("restored live filter dropped reply %d", i)
		}
	}
}

// TestSnapshotShardedFlavor: a live adapter over a sharded filter
// restores as the same sharded filter.
func TestSnapshotShardedFlavor(t *testing.T) {
	clock := newFakeClock()
	inner, err := core.NewSharded(4,
		core.WithOrder(10), core.WithVectors(2), core.WithHashes(2),
		core.WithRotateEvery(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	l, err := New(inner, WithClock(clock))
	if err != nil {
		t.Fatal(err)
	}
	l.Observe(tuple, packet.Outgoing, packet.SYN, 60)

	var buf bytes.Buffer
	if err := l.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := ReadSnapshot(&buf, nil, WithClock(clock))
	if err != nil {
		t.Fatal(err)
	}
	if name, want := g.Name(), inner.Name(); name != want {
		t.Errorf("restored filter is %s, want %s", name, want)
	}
	if v := g.Observe(tuple.Reverse(), packet.Incoming, packet.ACK, 60); v != filtering.Pass {
		t.Error("sharded restore lost the flow")
	}
}

// noSnap satisfies Inner but not the snapshot surface.
type noSnap struct{ Inner }

func TestWriteSnapshotNotSnapshottable(t *testing.T) {
	l, err := New(noSnap{Inner: core.MustNew(core.WithOrder(10), core.WithVectors(2),
		core.WithHashes(2), core.WithRotateEvery(time.Second))})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshot(&bytes.Buffer{}); !errors.Is(err, ErrNotSnapshottable) {
		t.Errorf("error = %v, want ErrNotSnapshottable", err)
	}
}

func TestReadSnapshotGarbage(t *testing.T) {
	if _, err := ReadSnapshot(bytes.NewReader([]byte("not a snapshot")), nil); err == nil {
		t.Error("garbage accepted")
	}
}
