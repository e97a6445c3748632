// Package resilience is the supervision and graceful-degradation layer
// between a capture source and the filter data plane. The edge filter
// only protects clients while the box running it stays up and keeps
// judging packets — and a 500K pps scan is precisely when capture
// sources hiccup, queues back up, and operators need liveness signals.
// This package makes the packet plane survive the attack it observes:
//
//   - Supervisor wraps any capture.Source with error classification
//     (transient vs. fatal), bounded retry with jittered exponential
//     backoff, and reopen-on-failure through a factory, so a flapping
//     AF_PACKET socket or a truncated pcap no longer kills the daemon.
//   - Buffer is a bounded frame-ring stage with watermark-based
//     shedding: a frame shed under overload is counted and never
//     judged.
//   - Watchdog collects heartbeats from the capture loop, the batch
//     loop and the checkpointer, flags stalls (a wedged loop), and
//     Health turns them into /healthz (liveness) and /readyz
//     (readiness) answers.
//
// Both Supervisor and Buffer implement capture.Source, so they compose:
//
//	sup, _ := resilience.NewSupervisor(resilience.SupervisorConfig{Open: open})
//	buf := resilience.NewBuffer(sup, resilience.BufferConfig{Capacity: 8192})
//	// feed buf to the same pump loop that read the raw source before
//
// Everything is deterministic given injected hooks: the backoff jitter
// is seeded, sleeps and clocks are injectable, so the chaos tests drive
// thousands of failures without wall-clock time.
package resilience

import (
	"errors"
	"fmt"
	"io"
	"io/fs"

	"bitmapfilter/internal/capture"
	"bitmapfilter/internal/pcap"
)

// Class is the supervisor's triage of a source error: does the stream
// end cleanly, is the source worth retrying, or is the configuration
// itself broken?
type Class uint8

const (
	// ClassEOF is a clean end of stream: a finite trace fully replayed,
	// or the source deliberately closed. The supervisor propagates
	// io.EOF and the daemon drains out.
	ClassEOF Class = iota
	// ClassTransient is a recoverable hiccup: an interrupted syscall, a
	// record truncated mid-stream, a socket that flapped. The supervisor
	// retries the source after a backoff and eventually reopens it via
	// the factory. Unknown errors default here — liveness first — but
	// the consecutive-failure budget bounds how long a persistent
	// "transient" error can spin before the supervisor gives up.
	ClassTransient
	// ClassFatal is a structural or configuration error retrying cannot
	// fix: a file that is not a pcap, a missing path, a permission
	// problem. The supervisor closes the source and returns the error.
	ClassFatal
)

// String names the class for logs.
func (c Class) String() string {
	switch c {
	case ClassEOF:
		return "eof"
	case ClassTransient:
		return "transient"
	case ClassFatal:
		return "fatal"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// Classify triages one source error for the Supervisor. The decisions
// the chaos and capture tests pin:
//
//   - io.EOF and capture.ErrClosed end the stream cleanly (ClassEOF).
//   - pcap.ErrBadMagic and pcap.ErrBadVersion mean the input is not a
//     readable pcap at all: fatal.
//   - capture.ErrTraceFault — a mapped trace truncated under the replay —
//     is fatal: the bytes are gone, and a reopen would walk the same
//     mapping into the same fault.
//   - fs.ErrNotExist and fs.ErrPermission are configuration problems a
//     reopen loop would only amplify: fatal.
//   - Anything else is transient, bounded by the supervisor's
//     consecutive-failure budget: io.ErrUnexpectedEOF, say — a pcap record
//     truncated mid-stream — or pcap.ErrSnapLen (a record claiming more
//     bytes than the snapshot length — corrupt framing mid-stream). A
//     replay reports either after the intact frames ahead of it, which the
//     Supervisor delivers; the pcap.Scanner is then exhausted, so the next
//     read ends the pass (io.EOF, or the next of -loops passes): a damaged
//     trace's good prefix is judged and the daemon exits 0, with one
//     transient error counted per pass and no reopen.
//   - So are interrupted or would-block syscalls (EINTR, EAGAIN), as the
//     AF_PACKET backend's own retry behavior has them.
func Classify(err error) Class {
	switch {
	case err == nil:
		return ClassEOF
	case errors.Is(err, io.EOF), errors.Is(err, capture.ErrClosed):
		return ClassEOF
	case errors.Is(err, pcap.ErrBadMagic), errors.Is(err, pcap.ErrBadVersion):
		return ClassFatal
	case errors.Is(err, capture.ErrTraceFault):
		return ClassFatal
	case errors.Is(err, fs.ErrNotExist), errors.Is(err, fs.ErrPermission):
		return ClassFatal
	default:
		return ClassTransient
	}
}
