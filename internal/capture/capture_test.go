package capture

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/pcap"
)

// makeTrace encodes count minimum-size frames, 1ms apart, into an
// in-memory pcap.
func makeTrace(t testing.TB, count int) []byte {
	t.Helper()
	return makeTraceOf(t, count, 60)
}

// makeTraceOf is makeTrace with frames of the given IP length.
func makeTraceOf(t testing.TB, count, length int) []byte {
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
			Dir: packet.Outgoing, Flags: packet.SYN, Length: length,
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

// replayBatch is one ReadBatch as it returned.
type replayBatch struct {
	frames []Frame
	err    error
}

// drainReplay reads trace to its end through a ring of the given size and
// returns every batch as delivered. With untouched set it zeroes the
// replay's look-ahead before every read, which is the walk with no touch in
// it: the reference the touched walk is held to.
func drainReplay(t *testing.T, trace []byte, loops, ring int, untouched bool) (batches []replayBatch, touched int, final *Replay) {
	t.Helper()
	r, err := NewReplayBytes(trace, loops)
	if err != nil {
		t.Fatal(err)
	}
	frames := make([]Frame, ring)
	for {
		if untouched {
			r.ahead = 0
		}
		if r.ahead > 0 {
			touched++
		}
		n, err := r.ReadBatch(frames)
		batches = append(batches, replayBatch{append([]Frame(nil), frames[:n]...), err})
		if err != nil {
			return batches, touched, r
		}
		if len(batches) > 1<<20 {
			t.Fatal("the replay does not end")
		}
	}
}

// TestReplayTouchedWalkIsPlainWalk: the touch ReadBatch makes ahead of its
// walk changes nothing a caller can see. Every batch of the touched replay
// is the untouched one's — as many frames, the same bytes of the trace, the
// same shifted times, the same error — over traces whose look-ahead span is
// clamped at the end of the data, is longer than the whole capture, has a
// torn header, a torn body or an over-long record inside it, and across the
// seam of a looped replay, where the clock must also stay monotonic. Which
// reads touch is the rule's: a batch predicts the next from the bytes and
// records of the pass it ended in, so a seam never makes large records look
// small.
func TestReplayTouchedWalkIsPlainWalk(t *testing.T) {
	const recordHeader = 16    // what pcap puts in front of every frame
	small := makeTrace(t, 100) // 76 B a record
	overlong := append([]byte(nil), small...)
	// Record 60 claims more than the file's snapLen; the records are 76 B.
	binary.LittleEndian.PutUint32(overlong[24+60*76+8:], pcap.DefaultSnapLen+1)
	for _, tc := range []struct {
		name        string
		trace       []byte
		loops, ring int
		wantTouch   bool
		wantErr     error
	}{
		{"clamped at the end", small, 1, 16, true, io.EOF},
		{"shorter than one span", small[:24+10*76], 5, 32, true, io.EOF},
		{"seam every other batch", small, 7, 64, true, io.EOF},
		{"ring of one", small, 2, 1, true, io.EOF},
		{"torn header", small[:24+90*76+7], 1, 16, true, io.ErrUnexpectedEOF},
		{"torn body", small[:24+90*76+40], 1, 16, true, io.ErrUnexpectedEOF},
		{"torn and looped", small[:24+90*76+40], 3, 16, true, io.ErrUnexpectedEOF},
		{"over snapLen", overlong, 1, 16, true, pcap.ErrSnapLen},
		{"records of two lines", makeTraceOf(t, 40, touchMaxRecord-recordHeader), 2, 8, true, io.EOF},
		{"records a byte over", makeTraceOf(t, 40, touchMaxRecord-recordHeader+1), 2, 8, false, io.EOF},
		{"mtu frames", makeTraceOf(t, 40, 1500), 2, 8, false, io.EOF},
		{"mtu frames, a pass and one frame per batch", makeTraceOf(t, 31, 1500), 9, 32, false, io.EOF},
		{"empty", small[:24], 3, 8, false, io.EOF},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, _, wantFinal := drainReplay(t, tc.trace, tc.loops, tc.ring, true)
			got, touched, gotFinal := drainReplay(t, tc.trace, tc.loops, tc.ring, false)
			if (touched > 0) != tc.wantTouch {
				t.Errorf("%d of %d reads touched ahead, want some: %v", touched, len(got), tc.wantTouch)
			}
			if len(got) != len(want) {
				t.Fatalf("%d batches, untouched %d", len(got), len(want))
			}
			var clock time.Duration
			sawErr := false
			for i := range want {
				g, w := got[i], want[i]
				if len(g.frames) != len(w.frames) || (g.err == nil) != (w.err == nil) || (g.err != nil && g.err.Error() != w.err.Error()) {
					t.Fatalf("batch %d: %d frames and %v, untouched %d and %v", i, len(g.frames), g.err, len(w.frames), w.err)
				}
				sawErr = sawErr || errors.Is(g.err, tc.wantErr)
				for j := range w.frames {
					gf, wf := g.frames[j], w.frames[j]
					if gf.Time != wf.Time || gf.OrigLen != wf.OrigLen || len(gf.Data) != len(wf.Data) || cap(gf.Data) != len(gf.Data) || &gf.Data[0] != &wf.Data[0] {
						t.Fatalf("batch %d frame %d: %+v, untouched %+v", i, j, gf, wf)
					}
					if gf.Time <= clock {
						t.Fatalf("batch %d frame %d at %v, not after %v", i, j, gf.Time, clock)
					}
					clock = gf.Time
				}
			}
			if !sawErr {
				t.Errorf("the replay never returned %v", tc.wantErr)
			}
			if g, w := gotFinal, wantFinal; !reflect.DeepEqual(g.sc, w.sc) || g.loops != w.loops || g.offset != w.offset || g.newest != w.newest || g.read != w.read {
				t.Errorf("the replay ends at loops %d, offset %v, newest %v, read %v; untouched %d, %v, %v, %v — or the scanners differ", g.loops, g.offset, g.newest, g.read, w.loops, w.offset, w.newest, w.read)
			}
		})
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
// 512-slot ring, as the pump uses, over a trace looped without end. The
// three traces sit on the three sides of the touch ReadBatch makes before
// it walks: resident mostly fits the reference box's L2, so the touch can
// only cost there (≈1.2–1.6 ns/frame); streamed is the size of the ledger's
// scan_flood trace and misses on every record, which is what the touch is
// for; mtu has records the touch must leave alone.
func BenchmarkReplayReadBatch(b *testing.B) {
	for _, bc := range []struct {
		name           string
		frames, length int
	}{
		{"resident", 1 << 16, 60},
		{"streamed", 1 << 19, 60},
		{"mtu", 1 << 15, 1500},
	} {
		b.Run(bc.name, func(b *testing.B) {
			trace := makeTraceOf(b, bc.frames, bc.length)
			r, err := NewReplayBytes(trace, 1<<30)
			if err != nil {
				b.Fatal(err)
			}
			ring := NewRing(512, 0)
			b.ReportAllocs()
			b.SetBytes(int64(len(trace) / bc.frames))
			b.ResetTimer()
			for frames := 0; frames < b.N; {
				n, err := r.ReadBatch(ring)
				if err != nil {
					b.Fatal(err)
				}
				frames += n
			}
		})
	}
}
