package capture

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"io"
	"testing"
	"time"
	"unsafe"

	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/pcap"
)

// makeTrace encodes count frames, 1ms apart, into an in-memory pcap.
func makeTrace(t testing.TB, count int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < count; i++ {
		p := packet.Packet{
			Time: time.Duration(i+1) * time.Millisecond,
			Tuple: packet.Tuple{
				Src: packet.AddrFrom4(10, 0, 0, 1), Dst: packet.AddrFrom4(198, 51, 100, 1),
				SrcPort: uint16(1024 + i), DstPort: 80, Proto: packet.TCP,
			},
			Dir: packet.Outgoing, Flags: packet.SYN, Length: 60,
		}
		frame, err := packet.Encode(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteRecord(pcap.Record{Time: p.Time, Data: frame}); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestReplaySinglePass(t *testing.T) {
	trace := makeTrace(t, 10)
	r, err := NewReplay(bytes.NewReader(trace), 1)
	if err != nil {
		t.Fatal(err)
	}
	ring := NewRing(4, 2048)
	total := 0
	var last time.Duration
	for {
		n, err := r.ReadBatch(ring)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if ring[i].Time <= last {
				t.Fatalf("timestamps not increasing: %v after %v", ring[i].Time, last)
			}
			last = ring[i].Time
			var pkt packet.Packet
			if err := packet.DecodeInto(&pkt, ring[i].Data); err != nil {
				t.Fatalf("frame %d undecodable: %v", total+i, err)
			}
			if ring[i].Truncated() {
				t.Fatalf("frame %d unexpectedly truncated", total+i)
			}
		}
		total += n
	}
	if total != 10 {
		t.Errorf("replayed %d frames, want 10", total)
	}
}

// TestReplayLoops: a looped trace must keep its clock strictly monotonic
// across the rewind seam and deliver loops×frames records.
func TestReplayLoops(t *testing.T) {
	trace := makeTrace(t, 7)
	const loops = 3
	r, err := NewReplay(bytes.NewReader(trace), loops)
	if err != nil {
		t.Fatal(err)
	}
	ring := NewRing(5, 2048)
	total := 0
	var last time.Duration
	for {
		n, err := r.ReadBatch(ring)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if ring[i].Time <= last {
				t.Fatalf("clock went backwards at frame %d: %v after %v", total+i, ring[i].Time, last)
			}
			last = ring[i].Time
		}
		total += n
	}
	if total != 7*loops {
		t.Errorf("replayed %d frames, want %d", total, 7*loops)
	}
}

func TestReplayEmptyTraceDoesNotLoopForever(t *testing.T) {
	trace := makeTrace(t, 0)
	r, err := NewReplay(bytes.NewReader(trace), 1000)
	if err != nil {
		t.Fatal(err)
	}
	ring := NewRing(4, 2048)
	if n, err := r.ReadBatch(ring); n != 0 || !errors.Is(err, io.EOF) {
		t.Errorf("empty trace: n=%d err=%v, want 0, EOF", n, err)
	}
}

// TestReplayZeroAllocs pins the hot loop at no allocation at all, the
// loop seam included: 64 frames at 16 per batch put a rewind in every
// fourth batch, so the 100 measured batches cross 25 seams.
func TestReplayZeroAllocs(t *testing.T) {
	trace := makeTrace(t, 64)
	r, err := NewReplay(bytes.NewReader(trace), 1000000)
	if err != nil {
		t.Fatal(err)
	}
	ring := NewRing(16, 2048)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := r.ReadBatch(ring); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ReadBatch allocates %.2f times per batch", allocs)
	}
}

// TestReplayLoopSeamOutOfOrder: a capture need not be sorted (a
// multi-queue NIC interleaves its queues), so the seam must shift the
// next pass past the newest timestamp of the pass, not past the last one
// read — otherwise pass 2 starts before pass 1's newest frame and
// replayed marks look younger than they are.
func TestReplayLoopSeamOutOfOrder(t *testing.T) {
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, ms := range []int{10, 50, 20} {
		if err := w.WriteRecord(pcap.Record{Time: time.Duration(ms) * time.Millisecond, Data: []byte{byte(ms)}}); err != nil {
			t.Fatal(err)
		}
	}
	r, err := NewReplayBytes(buf.Bytes(), 2)
	if err != nil {
		t.Fatal(err)
	}
	ring := NewRing(8, 0)
	n, err := r.ReadBatch(ring)
	if err != nil || n != 6 {
		t.Fatalf("ReadBatch = (%d, %v), want both passes in one batch", n, err)
	}
	var newest time.Duration
	for _, f := range ring[:3] {
		newest = max(newest, f.Time)
	}
	if ring[3].Time <= newest {
		t.Errorf("pass 2 starts at %v, not after pass 1's newest frame at %v", ring[3].Time, newest)
	}
	for i := 0; i < 3; i++ {
		if got, want := ring[3+i].Time-ring[3].Time, ring[i].Time-ring[0].Time; got != want {
			t.Errorf("frame %d of pass 2 sits %v after its first, recorded %v", i, got, want)
		}
	}
}

// within reports whether b lies inside outer's backing array.
func within(outer, b []byte) bool {
	if len(b) == 0 || len(outer) == 0 {
		return false
	}
	lo, hi := uintptr(unsafe.Pointer(&outer[0])), uintptr(unsafe.Pointer(&outer[len(outer)-1]))
	first, last := uintptr(unsafe.Pointer(&b[0])), uintptr(unsafe.Pointer(&b[len(b)-1]))
	return lo <= first && last <= hi
}

// TestReplayAliasesTrace pins the aliasing half of the Source contract:
// every frame is a slice of the trace, fenced with cap == len, and
// nothing downstream of a Replay ever writes to the trace.
func TestReplayAliasesTrace(t *testing.T) {
	const count, loops = 40, 3
	trace := makeTrace(t, count)
	sum := sha256.Sum256(trace)
	unchanged := func(after string) {
		t.Helper()
		if sha256.Sum256(trace) != sum {
			t.Fatalf("trace bytes changed %s", after)
		}
	}

	r, err := NewReplayBytes(trace, loops)
	if err != nil {
		t.Fatal(err)
	}
	ring := NewRing(16, 2048)
	total := 0
	for {
		n, err := r.ReadBatch(ring)
		for i, f := range ring[:n] {
			if !within(trace, f.Data) {
				t.Fatalf("frame %d does not point into the trace", total+i)
			}
			if cap(f.Data) != len(f.Data) {
				t.Fatalf("frame %d: cap %d != len %d", total+i, cap(f.Data), len(f.Data))
			}
			// What the fence is for: growing a frame must move it, not
			// run on into the next record's header.
			if grown := append(f.Data, 0xff); within(trace, grown) {
				t.Fatalf("frame %d: append wrote into the trace", total+i)
			}
		}
		total += n
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if total != count*loops {
		t.Fatalf("replayed %d frames, want %d", total, count*loops)
	}
	unchanged("after a replay")

	// The ring now holds aliases. Loopback aliases too, so it may take
	// the ring over whatever the frame sizes: shorter than, equal to and
	// longer than what the slots point at.
	lb := NewLoopback()
	for _, size := range []int{1, len(ring[0].Data), 2 * len(ring[0].Data)} {
		if err := lb.WriteFrame(Frame{Data: bytes.Repeat([]byte{0xee}, size)}); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := lb.ReadBatch(ring); n != 3 || err != nil {
		t.Fatalf("loopback ReadBatch = (%d, %v)", n, err)
	}
	for i, f := range ring[:3] {
		if within(trace, f.Data) {
			t.Errorf("loopback frame %d was written into the trace", i)
		}
	}
	unchanged("after a Loopback took over the ring")
}

func TestLoopbackRoundTrip(t *testing.T) {
	lb := NewLoopback()
	payload := []byte{1, 2, 3, 4, 5}
	for i := 0; i < 3; i++ {
		f := Frame{Time: time.Duration(i) * time.Second, Data: payload}
		if err := lb.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := lb.Close(); err != nil {
		t.Fatal(err)
	}
	// Writes after close fail.
	if err := lb.WriteFrame(Frame{Data: payload}); !errors.Is(err, ErrClosed) {
		t.Errorf("write after close: %v, want ErrClosed", err)
	}
	// Queued frames drain after close, then EOF.
	ring := NewRing(2, 64)
	n, err := lb.ReadBatch(ring)
	if err != nil || n != 2 {
		t.Fatalf("first batch: n=%d err=%v", n, err)
	}
	if !bytes.Equal(ring[0].Data, payload) || ring[0].Time != 0 {
		t.Errorf("frame 0 = %+v", ring[0])
	}
	if ring[1].Time != time.Second {
		t.Errorf("frame 1 time = %v", ring[1].Time)
	}
	n, err = lb.ReadBatch(ring)
	if err != nil || n != 1 {
		t.Fatalf("second batch: n=%d err=%v", n, err)
	}
	if ring[0].OrigLen != len(payload) {
		t.Errorf("OrigLen = %d, want %d", ring[0].OrigLen, len(payload))
	}
	if _, err := lb.ReadBatch(ring); !errors.Is(err, io.EOF) {
		t.Errorf("drained loopback: %v, want EOF", err)
	}
}

// TestLoopbackBlocksUntilWrite: a reader arriving before the writer must
// wake on the first frame rather than spin or miss it.
func TestLoopbackBlocksUntilWrite(t *testing.T) {
	lb := NewLoopback()
	got := make(chan Frame, 1)
	go func() {
		ring := NewRing(1, 64)
		if n, err := lb.ReadBatch(ring); err == nil && n == 1 {
			got <- Frame{Time: ring[0].Time, Data: append([]byte(nil), ring[0].Data...)}
		}
		close(got)
	}()
	want := Frame{Time: 42 * time.Millisecond, Data: []byte{9, 9, 9}}
	if err := lb.WriteFrame(want); err != nil {
		t.Fatal(err)
	}
	f, ok := <-got
	if !ok {
		t.Fatal("reader exited without a frame")
	}
	if f.Time != want.Time || !bytes.Equal(f.Data, want.Data) {
		t.Errorf("got %+v, want %+v", f, want)
	}
}

// TestReplayConcurrentClose pins the Source.Close contract: Close may
// race ReadBatch from another goroutine (bfwall's signal handler does
// exactly this) and may be called more than once; the reader winds down
// with io.EOF. Run under -race, this is the regression test for the
// unsynchronized closed flag Replay originally had.
func TestReplayConcurrentClose(t *testing.T) {
	trace := makeTrace(t, 64)
	r, err := NewReplay(bytes.NewReader(trace), 1<<30) // effectively endless
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		ring := NewRing(4, 2048)
		close(started)
		for {
			if _, err := r.ReadBatch(ring); err != nil {
				done <- err
				return
			}
		}
	}()
	<-started
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := r.Close(); err != nil { // idempotent
		t.Fatalf("second Close: %v", err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, io.EOF) {
			t.Fatalf("reader ended with %v, want io.EOF", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reader did not observe Close")
	}
}

// BenchmarkReplayReadBatch prices the replay read path per frame: a
// 512-slot ring, as the pump uses, over a trace looped without end.
func BenchmarkReplayReadBatch(b *testing.B) {
	trace := makeTrace(b, 1<<16)
	r, err := NewReplayBytes(trace, 1<<30)
	if err != nil {
		b.Fatal(err)
	}
	ring := NewRing(512, 0)
	b.ReportAllocs()
	b.SetBytes(int64(len(trace) >> 16))
	b.ResetTimer()
	for frames := 0; frames < b.N; {
		n, err := r.ReadBatch(ring)
		if err != nil {
			b.Fatal(err)
		}
		frames += n
	}
}
