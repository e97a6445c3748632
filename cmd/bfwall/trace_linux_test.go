package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bitmapfilter/internal/capture"
	"bitmapfilter/internal/resilience"
)

// genTrace writes a synthesized trace to a file and returns its path.
func genTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scan.pcap")
	if err := run(context.Background(), []string{"-gen", path, "-scan-pps", "50000", "-conn-rate", "20", "-gen-duration", "200ms"}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	return path
}

// reportLine returns the line of a -bench report that starts with prefix.
func reportLine(t *testing.T, report, prefix string) string {
	t.Helper()
	for _, line := range strings.Split(report, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), prefix) {
			return strings.TrimSpace(line)
		}
	}
	t.Fatalf("no %q line in:\n%s", prefix, report)
	return ""
}

// TestMappedAndPipedTraceSameVerdicts: -pcap over a file maps it, -pcap
// over a pipe reads it, and the two judge the same frames the same way —
// the setup line says which load ran, the verdicts line is identical.
func TestMappedAndPipedTraceSameVerdicts(t *testing.T) {
	path := genTrace(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bench := func(pcapPath string) string {
		var out bytes.Buffer
		if err := run(context.Background(), []string{"-bench", "-target", "1", "-pcap", pcapPath, "-loops", "2"}, &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	mapped := bench(path)

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	go func() {
		w.Write(data) // a short write shows as other verdicts below
		w.Close()
	}()
	piped := bench(fmt.Sprintf("/dev/fd/%d", r.Fd()))

	if got := reportLine(t, mapped, "setup:"); !strings.Contains(got, "(mapped, ") {
		t.Errorf("a file's setup line: %q", got)
	}
	if got := reportLine(t, piped, "setup:"); !strings.Contains(got, "(read, ") {
		t.Errorf("a pipe's setup line: %q", got)
	}
	if m, p := reportLine(t, mapped, "verdicts:"), reportLine(t, piped, "verdicts:"); m != p {
		t.Errorf("mapped %q, piped %q", m, p)
	}
}

// TestTruncatedTraceEndsBfwall: a -pcap trace truncated while bfwall replays
// it ends the daemon with ErrTraceFault — an error, not "unexpected fault
// address" — in one supervisor attempt: the error is fatal, so it is not
// retried until the failure budget is exhausted.
func TestTruncatedTraceEndsBfwall(t *testing.T) {
	path := genTrace(t)
	done := make(chan error, 1)
	go func() {
		done <- run(context.Background(), []string{"-bench", "-pcap", path, "-loops", "1000000"}, &bytes.Buffer{})
	}()
	// Truncate once the trace is mapped: from then on the replay's bytes are
	// the file's pages.
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		maps, err := os.ReadFile("/proc/self/maps")
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(maps, []byte(path)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the trace was never mapped")
		}
	}
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, capture.ErrTraceFault) || errors.Is(err, resilience.ErrExhausted) {
			t.Errorf("bfwall over a truncated trace: %v, want ErrTraceFault at the first fault", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("bfwall still running 30s after its trace was truncated")
	}
}
