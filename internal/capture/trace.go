package capture

import (
	"errors"
	"os"
)

// ErrTraceFault ends a Replay whose trace memory faulted under the walk: a
// mapped trace file was truncated while it was being replayed, and the
// bytes behind its new end are gone. Nothing the source could retry brings
// them back, so resilience.Classify calls it fatal.
var ErrTraceFault = errors.New("capture: trace memory faulted (mapped file truncated under the replay)")

// Trace is a pcap capture file's bytes, for NewReplayBytes: mapped
// read-only where the platform and the file allow it, read into the heap
// otherwise. Either way Bytes is the file's content and every Replay over
// it aliases it, so a trace is in memory once however often the supervisor
// reopens its source.
//
// A mapped trace is the file's page cache, not a copy of it, and the
// caller owns the precondition a copy never needed: the file is not
// rewritten in place while it is replayed. A rewrite shows up as decode
// errors, never as a crash; a truncation ends the replay with
// ErrTraceFault (Replay.ReadBatch, and the pump's decode boundary).
type Trace struct {
	data   []byte
	mapped bool
}

// OpenTrace loads the capture file at path. On Linux a regular, non-empty
// file is mapped read-only with MAP_POPULATE, so its page tables are built
// here and not by faults under the first batches. A pipe or /dev/stdin, an
// empty file, a mapping the kernel refuses and every other platform are
// read with os.ReadFile instead. Which one happened follows from the path
// alone; Mapped reports it.
func OpenTrace(path string) (*Trace, error) {
	if data, ok := mapFile(path); ok {
		return &Trace{data: data, mapped: true}, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return &Trace{data: data}, nil
}

// Bytes is the capture file's content; nil after Close. It is read-only:
// for a mapped trace a write faults.
func (t *Trace) Bytes() []byte { return t.data }

// Mapped reports whether Bytes is a mapping of the file rather than a copy.
func (t *Trace) Mapped() bool { return t.mapped }

// Close releases the trace: a mapping is unmapped, a copy left to the
// collector. Every Replay over it must be done — after Close its frames
// point at nothing. Close is idempotent.
func (t *Trace) Close() error {
	data := t.data
	t.data = nil
	if !t.mapped || data == nil {
		return nil
	}
	return unmap(data)
}
