package core

import (
	"sync"
	"time"

	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/packet"
)

// Safe wraps a Filter with a mutex so multiple goroutines (e.g. per-uplink
// packet pumps in a live deployment) can share one bitmap. All methods of
// the wrapped filter that are part of filtering.PacketFilter are exposed.
type Safe struct {
	mu     sync.Mutex
	f      *Filter //bf:guardedby mu
	hasher *Hasher // f's, immutable: read without the lock
}

var _ filtering.BatchFilter = (*Safe)(nil)

// NewSafe wraps f. The wrapped filter must not be used directly afterwards.
func NewSafe(f *Filter) *Safe {
	return &Safe{f: f, hasher: f.Hasher()}
}

// Process implements filtering.PacketFilter.
//
//bf:hotpath
func (s *Safe) Process(pkt packet.Packet) filtering.Verdict {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Process(pkt)
}

// ProcessBatch runs pkts through the filter under a single lock
// acquisition and returns one verdict per packet. For multi-queue packet
// pumps this replaces one mutex round-trip per packet with one per batch;
// verdicts are identical to calling Process per packet.
func (s *Safe) ProcessBatch(pkts []packet.Packet) []filtering.Verdict {
	if len(pkts) == 0 {
		return nil
	}
	out := make([]filtering.Verdict, len(pkts))
	s.processBatchInto(pkts, out)
	return out
}

// ProcessBatchInto is ProcessBatch writing into a caller-provided buffer
// (see the filtering.BatchFilter contract): one lock acquisition per batch
// and zero allocations once out has capacity for the batch size.
//
//bf:hotpath
func (s *Safe) ProcessBatchInto(pkts []packet.Packet, out []filtering.Verdict) []filtering.Verdict {
	out = filtering.GrowVerdicts(out, len(pkts))
	s.processBatchInto(pkts, out)
	return out
}

// processBatchInto fills out (same length as pkts) under one lock; Sharded
// uses it to batch per shard without extra allocations.
//
//bf:hotpath
func (s *Safe) processBatchInto(pkts []packet.Packet, out []filtering.Verdict) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.f.processBatch(pkts, out)
}

// Hasher forwards to Filter.Hasher; hashing takes no lock.
func (s *Safe) Hasher() *Hasher { return s.hasher }

// ProcessHashedInto forwards to Filter.ProcessHashedInto: one lock per batch.
//
//bf:hotpath
func (s *Safe) ProcessHashedInto(pkts []packet.Packet, idxs []uint64, out []filtering.Verdict) []filtering.Verdict {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.ProcessHashedInto(pkts, idxs, out)
}

// AdvanceTo implements filtering.PacketFilter.
func (s *Safe) AdvanceTo(now time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.f.AdvanceTo(now)
}

// Name implements filtering.PacketFilter.
func (s *Safe) Name() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Name()
}

// MemoryBytes implements filtering.PacketFilter.
func (s *Safe) MemoryBytes() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.MemoryBytes()
}

// Counters implements filtering.PacketFilter.
func (s *Safe) Counters() filtering.Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Counters()
}

// Utilization returns the current-vector utilization.
func (s *Safe) Utilization() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Utilization()
}

// RotateEvery returns Δt (immutable after construction, but read under
// the lock for consistency with the other forwards).
func (s *Safe) RotateEvery() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.RotateEvery()
}

// APDSpared forwards to Filter.APDSpared under the lock.
func (s *Safe) APDSpared() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.APDSpared()
}

// PunchHole forwards to Filter.PunchHole under the lock.
func (s *Safe) PunchHole(local packet.Addr, localPort uint16, remote packet.Addr, proto packet.Proto) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.f.PunchHole(local, localPort, remote, proto)
}

// WouldAdmit forwards to Filter.WouldAdmit under the lock.
func (s *Safe) WouldAdmit(tup packet.Tuple) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.WouldAdmit(tup)
}

// Stats forwards to Filter.Stats under the lock.
func (s *Safe) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Stats()
}

// Reset forwards to Filter.Reset under the lock.
func (s *Safe) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.f.Reset()
}
