package pump

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"bitmapfilter/internal/capture"
	"bitmapfilter/internal/pcap"
)

// mappedFrames writes frames to a pcap file, maps it (capture.OpenTrace)
// and returns them again as frames whose Data aliases the mapping, with the
// path: truncate it and the frames' bytes are gone.
func mappedFrames(t *testing.T, frames []capture.Frame) ([]capture.Frame, string) {
	t.Helper()
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if err := w.WriteRecord(pcap.Record{Time: f.Time, Data: f.Data}); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "mapped.pcap")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	trace, err := capture.OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { trace.Close() })
	if !trace.Mapped() {
		t.Fatal("a regular file was not mapped")
	}
	sc, err := pcap.NewScanner(trace.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	out := make([]capture.Frame, len(frames))
	for i := range out {
		if err := sc.Next((*pcap.Record)(&out[i])); err != nil {
			t.Fatal(err)
		}
	}
	return out, path
}

// TestDecodeFaultQuarantinesBatch: frames whose bytes are a mapping that is
// truncated before Run fault in the workers' decode. The fault is a panic
// there (Run sets panic-on-fault on every worker, the calling goroutine's
// included), the decode boundary quarantines exactly that batch, and the
// process lives: the batches around it are judged as ever.
func TestDecodeFaultQuarantinesBatch(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("W=%d", workers), func(t *testing.T) {
			syns, replies := flows(t, 37)
			mapped, path := mappedFrames(t, syns)
			if err := os.Truncate(path, 0); err != nil {
				t.Fatal(err)
			}
			src := &listSource{batches: [][]capture.Frame{syns, mapped, replies}}
			p := New(Config{Source: src, Filter: single(t), Subnets: subnets, Batch: 37, Workers: workers})
			if err := p.Run(); err != nil {
				t.Fatal(err)
			}
			s := p.Snapshot()
			if s.QuarantinedBatches != 1 || s.QuarantinedFrames != 37 {
				t.Errorf("quarantined %d batches, %d frames; want the mapped batch's 37", s.QuarantinedBatches, s.QuarantinedFrames)
			}
			if s.Frames != 3*37 || s.Outgoing != 37 || s.Incoming != 37 || s.Passed != 37 {
				t.Errorf("%d frames, %d out, %d in, %d passed; want 111, and the other two batches judged", s.Frames, s.Outgoing, s.Incoming, s.Passed)
			}
		})
	}
}
