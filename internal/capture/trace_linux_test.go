package capture_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"testing"

	"bitmapfilter/internal/capture"
	"bitmapfilter/internal/resilience"
)

// TestOpenTraceReadsWhatItCannotMap: a pipe (through its /dev/fd path, as
// `bfwall -pcap /dev/stdin` opens one) and a character device are read, not
// mapped, with the bytes a mapping of the same file would have.
func TestOpenTraceReadsWhatItCannotMap(t *testing.T) {
	data := trace(t, 2000) // more than a pipe buffer holds
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	go func() {
		w.Write(data) // a short write shows as different bytes below
		w.Close()
	}()
	piped, err := capture.OpenTrace(fmt.Sprintf("/dev/fd/%d", r.Fd()))
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := capture.OpenTrace(writeTrace(t, data))
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	if piped.Mapped() || !mapped.Mapped() || !bytes.Equal(piped.Bytes(), mapped.Bytes()) {
		t.Errorf("pipe: mapped %v, %d bytes; file: mapped %v, %d bytes", piped.Mapped(), len(piped.Bytes()), mapped.Mapped(), len(mapped.Bytes()))
	}
	null, err := capture.OpenTrace(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	if null.Mapped() || len(null.Bytes()) != 0 {
		t.Errorf("%s: mapped %v, %d bytes", os.DevNull, null.Mapped(), len(null.Bytes()))
	}
}

// TestTruncatedTraceFaultIsFatal: a mapped trace truncated under its Replay
// faults at the next walk. ReadBatch turns the fault into 0 frames and
// ErrTraceFault — then and at every later call — instead of the process
// dying with "unexpected fault address"; Classify calls it fatal, so the
// supervisor gives up at the first one, with no retry and no reopen. A
// Replay opened over the truncated mapping faults on the header and is the
// same error.
func TestTruncatedTraceFaultIsFatal(t *testing.T) {
	path := writeTrace(t, trace(t, 200))
	tr, err := capture.OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if !tr.Mapped() {
		t.Fatal("a regular file was not mapped")
	}
	opens := 0
	sup, err := resilience.NewSupervisor(resilience.SupervisorConfig{
		Open: func() (capture.Source, error) {
			opens++
			return capture.NewReplayBytes(tr.Bytes(), 1)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ring := make([]capture.Frame, 16)
	if n, err := sup.ReadBatch(ring); n != len(ring) || err != nil {
		t.Fatalf("the first read = (%d, %v), want a full ring", n, err)
	}
	r, err := capture.NewReplayBytes(tr.Bytes(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 2; i++ {
		n, err := r.ReadBatch(ring)
		if n != 0 || !errors.Is(err, capture.ErrTraceFault) {
			t.Fatalf("read #%d of a truncated mapping = (%d, %v), want (0, ErrTraceFault)", i+1, n, err)
		}
		if got := resilience.Classify(err); got != resilience.ClassFatal {
			t.Errorf("%v classifies %v, want ClassFatal", err, got)
		}
	}
	if n, err := sup.ReadBatch(ring); n != 0 || !errors.Is(err, capture.ErrTraceFault) || errors.Is(err, resilience.ErrExhausted) {
		t.Errorf("supervised read = (%d, %v), want ErrTraceFault at once", n, err)
	}
	if st := sup.Stats(); opens != 1 || st.FatalErrors != 1 || st.TransientErrors != 0 || st.Reopens != 0 || st.Backoffs != 0 {
		t.Errorf("%d opens, stats %+v; want one open and one fatal error, never backed off", opens, st)
	}
	if _, err := capture.NewReplayBytes(tr.Bytes(), 1); !errors.Is(err, capture.ErrTraceFault) {
		t.Errorf("a Replay opened over the truncated mapping: %v, want ErrTraceFault", err)
	}
}
