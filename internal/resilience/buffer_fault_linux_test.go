package resilience

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"bitmapfilter/internal/capture"
	"bitmapfilter/internal/pcap"
)

// onceSource hands out its frames as they are, once, without reading them.
type onceSource struct {
	frames []capture.Frame
	done   bool
}

func (s *onceSource) ReadBatch(frames []capture.Frame) (int, error) {
	if s.done {
		return 0, io.EOF
	}
	s.done = true
	return copy(frames, s.frames), nil
}

func (s *onceSource) Close() error { return nil }

// TestBufferTraceFaultEndsIntake: the queue copies frames that alias a
// mapped trace on its own intake goroutine, outside the Replay's fault
// boundary. A truncation under the copy ends the intake with
// capture.ErrTraceFault — fatal — instead of the process; the lock the copy
// held is released, so readers see the error.
func TestBufferTraceFaultEndsIntake(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.pcap")
	if err := os.WriteFile(path, pcapTrace(t, 50), 0o644); err != nil {
		t.Fatal(err)
	}
	trace, err := capture.OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	defer trace.Close()
	sc, err := pcap.NewScanner(trace.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	src := &onceSource{frames: make([]capture.Frame, 50)}
	for i := range src.frames {
		if err := sc.Next((*pcap.Record)(&src.frames[i])); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	b := NewBuffer(src, BufferConfig{Capacity: 64, SnapLen: 256})
	defer b.Close()
	n, err := b.ReadBatch(capture.NewRing(64, 256))
	if n != 0 || !errors.Is(err, capture.ErrTraceFault) || Classify(err) != ClassFatal {
		t.Errorf("read behind a faulted intake = (%d, %v), want (0, fatal ErrTraceFault)", n, err)
	}
}
