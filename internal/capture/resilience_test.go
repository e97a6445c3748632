package capture_test

// External test package: these tests pin the Source error contract the
// resilience layer is built on, so they import resilience to assert how
// each failure classifies (capture cannot import resilience internally —
// the dependency runs the other way).

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"bitmapfilter/internal/capture"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/pcap"
	"bitmapfilter/internal/resilience"
)

func trace(t testing.TB, count int) []byte {
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

// TestLoopbackCloseDuringRead: Close from another goroutine must wake a
// blocked reader with io.EOF — the clean-shutdown signal the supervisor
// and the pump both treat as "stop, nothing is wrong".
func TestLoopbackCloseDuringRead(t *testing.T) {
	lb := capture.NewLoopback()
	type result struct {
		n   int
		err error
	}
	done := make(chan result, 1)
	go func() {
		ring := capture.NewRing(4, 256)
		n, err := lb.ReadBatch(ring)
		done <- result{n, err}
	}()
	// Let the reader park on the empty queue, then close under it.
	time.Sleep(10 * time.Millisecond)
	if err := lb.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-done:
		if res.n != 0 || !errors.Is(res.err, io.EOF) {
			t.Errorf("ReadBatch after close = (%d, %v), want (0, io.EOF)", res.n, res.err)
		}
		if got := resilience.Classify(res.err); got != resilience.ClassEOF {
			t.Errorf("close-during-read classifies %v, want ClassEOF", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reader still blocked after Close")
	}
}

// TestReplayCorruptRecordMidStream: a trace truncated inside a record
// must deliver every intact frame and then fail with
// io.ErrUnexpectedEOF — a transient error (retry, reopen), never a
// clean EOF (which would silently drop the tail) and never fatal.
func TestReplayCorruptRecordMidStream(t *testing.T) {
	full := trace(t, 5)
	cut := append([]byte(nil), full[:len(full)-10]...) // tear the last record
	r, err := capture.NewReplay(bytes.NewReader(cut), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ring := capture.NewRing(16, 2048)
	got := 0
	var readErr error
	for {
		n, err := r.ReadBatch(ring)
		got += n
		if err != nil {
			readErr = err
			break
		}
	}
	if got != 4 {
		t.Errorf("intact frames delivered = %d, want 4", got)
	}
	if !errors.Is(readErr, io.ErrUnexpectedEOF) {
		t.Errorf("mid-record truncation error = %v, want io.ErrUnexpectedEOF", readErr)
	}
	if got := resilience.Classify(readErr); got != resilience.ClassTransient {
		t.Errorf("truncation classifies %v, want ClassTransient", got)
	}
}

// TestReplayBadMagicIsFatal: garbage that is not a pcap at all must fail
// at open with pcap.ErrBadMagic — a fatal, do-not-retry error.
func TestReplayBadMagicIsFatal(t *testing.T) {
	garbage := []byte("this is definitely not a pcap capture file")
	_, err := capture.NewReplay(bytes.NewReader(garbage), 1)
	if !errors.Is(err, pcap.ErrBadMagic) {
		t.Fatalf("open error = %v, want pcap.ErrBadMagic", err)
	}
	if got := resilience.Classify(err); got != resilience.ClassFatal {
		t.Errorf("bad magic classifies %v, want ClassFatal", got)
	}
}

// TestFrameOutlivesNextReadBatch pins the lifetime half of the Source
// contract: a frame is valid until the ring it was delivered into is next
// passed to ReadBatch, so a consumer with two rings may still be decoding
// ring A while ring B is read. The rings are bare — no buffers of their
// own until a filling source gives them some.
func TestFrameOutlivesNextReadBatch(t *testing.T) {
	const frames = 12
	data := trace(t, frames)
	sources := map[string]func(t *testing.T) capture.Source{
		"replay": func(t *testing.T) capture.Source {
			r, err := capture.NewReplayBytes(data, 1)
			if err != nil {
				t.Fatal(err)
			}
			return r
		},
		"loopback": func(t *testing.T) capture.Source {
			r, err := capture.NewReplayBytes(data, 1)
			if err != nil {
				t.Fatal(err)
			}
			lb := capture.NewLoopback()
			ring := make([]capture.Frame, frames)
			n, _ := r.ReadBatch(ring)
			for _, f := range ring[:n] {
				if err := lb.WriteFrame(f); err != nil {
					t.Fatal(err)
				}
			}
			lb.Close()
			return lb
		},
		"buffer": func(t *testing.T) capture.Source {
			r, err := capture.NewReplayBytes(data, 1)
			if err != nil {
				t.Fatal(err)
			}
			return resilience.NewBuffer(r, resilience.BufferConfig{Capacity: 64, SnapLen: 256})
		},
	}
	for name, open := range sources {
		t.Run(name, func(t *testing.T) {
			src := open(t)
			defer src.Close()
			a, b := make([]capture.Frame, 4), make([]capture.Frame, 4)
			na, err := src.ReadBatch(a)
			if err != nil || na == 0 {
				t.Fatalf("first read = (%d, %v)", na, err)
			}
			held := make([][]byte, na)
			for i, f := range a[:na] {
				held[i] = append([]byte(nil), f.Data...)
			}
			// Two more reads into the other ring: the source moves on, and a
			// filling source reuses b's slots, never a's.
			for i := 0; i < 2; i++ {
				if nb, err := src.ReadBatch(b); err != nil || nb == 0 {
					t.Fatalf("read %d into the second ring = (%d, %v)", i, nb, err)
				}
			}
			for i, f := range a[:na] {
				if !bytes.Equal(f.Data, held[i]) {
					t.Errorf("frame %d of the first ring changed under a read into the second", i)
				}
			}
		})
	}
}
