package capture_test

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"bitmapfilter/internal/capture"
)

// writeTrace puts data in a file of its own and returns the path.
func writeTrace(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.pcap")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// replayCount replays the trace once and counts its frames.
func replayCount(t *testing.T, data []byte) int {
	t.Helper()
	r, err := capture.NewReplayBytes(data, 1)
	if err != nil {
		t.Fatal(err)
	}
	ring, total := make([]capture.Frame, 8), 0
	for {
		n, err := r.ReadBatch(ring)
		total += n
		if errors.Is(err, io.EOF) {
			return total
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenTraceMapsRegularFile: a regular, non-empty file is mapped on
// Linux and read everywhere else, and either way Bytes is the file's
// content, which replays frame for frame. Close is idempotent.
func TestOpenTraceMapsRegularFile(t *testing.T) {
	data := trace(t, 20)
	path := writeTrace(t, data)
	tr, err := capture.OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := runtime.GOOS == "linux"; tr.Mapped() != want {
		t.Errorf("Mapped() = %v on %s, want %v", tr.Mapped(), runtime.GOOS, want)
	}
	if read, err := os.ReadFile(path); err != nil || !bytes.Equal(tr.Bytes(), read) {
		t.Fatalf("Bytes() is not the file's content (%d bytes, ReadFile %d, %v)", len(tr.Bytes()), len(read), err)
	}
	if got := replayCount(t, tr.Bytes()); got != 20 {
		t.Errorf("the trace replays %d frames, want 20", got)
	}
	for i := 0; i < 2; i++ {
		if err := tr.Close(); err != nil {
			t.Errorf("Close #%d: %v", i+1, err)
		}
	}
	if tr.Bytes() != nil {
		t.Error("Bytes() after Close is not nil")
	}
}

// TestOpenTraceFallsBack: a file that cannot be mapped is read, with the
// same bytes — an empty file maps nothing — and a missing one is the error
// os.ReadFile gives, which the supervisor calls fatal.
func TestOpenTraceFallsBack(t *testing.T) {
	tr, err := capture.OpenTrace(writeTrace(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Mapped() || len(tr.Bytes()) != 0 {
		t.Errorf("an empty file: mapped %v, %d bytes", tr.Mapped(), len(tr.Bytes()))
	}
	if err := tr.Close(); err != nil {
		t.Error(err)
	}
	if _, err := capture.OpenTrace(filepath.Join(t.TempDir(), "missing.pcap")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("a missing file: %v, want fs.ErrNotExist", err)
	}
}
