// Package live adapts the virtual-time bitmap filter to wall-clock packet
// sources: it stamps each observed tuple with the elapsed monotonic time
// since construction, serializes access for concurrent capture threads,
// and (optionally) runs a background ticker so rotations fire even while
// the link is quiet.
//
// This is the deployment-facing shim: everything under internal/core is
// timestamp-driven and deterministic for simulation; a router integration
// simply calls Observe for every packet it forwards.
package live

import (
	"errors"
	"io"
	"sync"
	"time"

	"bitmapfilter/internal/core"
	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/tenant"
)

// ErrNilFilter is returned by New when no filter is supplied.
var ErrNilFilter = errors.New("live: nil filter")

// Inner is the filter surface the adapter drives: the batched data plane
// plus the introspection and control hooks the daemon endpoints need.
// *core.Filter, *core.Safe and *core.Sharded all satisfy it, so a
// wall-clock deployment picks its concurrency flavor (including
// sharded+APD) without changing the adapter.
type Inner interface {
	filtering.BatchFilter
	PunchHole(local packet.Addr, localPort uint16, remote packet.Addr, proto packet.Proto)
	Stats() core.Stats
	Utilization() float64
	RotateEvery() time.Duration
}

// shardStatser is the optional per-shard introspection surface
// (*core.Sharded); see Filter.ShardStats.
type shardStatser interface {
	ShardStats() []core.Stats
}

// Clock abstracts wall time so tests can drive the adapter
// deterministically. It is an alias of core.Clock so the unified builder's
// WithLiveClock option and this package's WithClock accept the same
// implementations.
type Clock = core.Clock

// realClock is the default Clock.
type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

// Option configures the adapter.
type Option interface {
	apply(*Filter)
}

type clockOption struct{ c Clock }

func (o clockOption) apply(f *Filter) { f.clock = o.c }

// WithClock substitutes the time source (tests, replay).
func WithClock(c Clock) Option { return clockOption{c: c} }

// Filter is a goroutine-safe, wall-clock-driven bitmap filter.
type Filter struct {
	mu    sync.Mutex
	inner Inner //bf:guardedby mu
	clock Clock
	start time.Time
	//bf:guardedby mu
	ticker struct {
		stop chan struct{}
		done chan struct{}
	}
}

// New wraps a core filter flavor (see Inner). The wrapped filter must not
// be used directly afterwards.
func New(f Inner, opts ...Option) (*Filter, error) {
	if f == nil {
		return nil, ErrNilFilter
	}
	l := &Filter{inner: f, clock: realClock{}}
	for _, o := range opts {
		o.apply(l)
	}
	l.start = l.clock.Now()
	return l, nil
}

// Adopt wraps a filter that already carries state — its rotation clock
// stands at some non-zero virtual time — and back-dates the adapter's
// start so the wall clock resumes exactly where the filter clock left
// off. Restores (ReadSnapshot, the tenant fleet restore in bfserve) use
// it so downtime neither ages nor extends marks; for a fresh filter it is
// identical to New.
func Adopt(f Inner, opts ...Option) (*Filter, error) {
	l, err := New(f, opts...)
	if err != nil {
		return nil, err
	}
	l.start = l.clock.Now().Add(-f.Stats().Now)
	return l, nil
}

// elapsed returns the filter-clock timestamp for "now".
func (l *Filter) elapsed() time.Duration {
	return l.clock.Now().Sub(l.start)
}

// Observe runs one packet (described by its tuple, direction, TCP flags
// and length) through the filter at the current wall-clock time and
// returns the verdict.
//
//bf:hotpath
func (l *Filter) Observe(tup packet.Tuple, dir packet.Direction, flags packet.Flags, length int) filtering.Verdict {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inner.Process(packet.Packet{
		Time:   l.elapsed(),
		Tuple:  tup,
		Dir:    dir,
		Flags:  flags,
		Length: length,
	})
}

// ObserveBatch stamps every packet in pkts with the current wall-clock
// elapsed time — overwriting any Time already set — and runs them through
// the filter in order under a single lock acquisition and a single clock
// read. It returns one verdict per packet. This is the hot path for packet
// sources that deliver bursts (NIC rings, pcap buffers): per-packet lock
// and clock overhead is paid once per batch.
func (l *Filter) ObserveBatch(pkts []packet.Packet) []filtering.Verdict {
	if len(pkts) == 0 {
		return nil
	}
	return l.ObserveBatchInto(pkts, nil)
}

// ObserveBatchInto is ObserveBatch writing into a caller-provided buffer
// under the filtering.BatchFilter ProcessBatchInto contract: out's backing
// array is reused when cap(out) >= len(pkts) and grown otherwise, so a
// packet pump that recycles its packet and verdict buffers runs the whole
// wire-to-verdict path without allocating.
//
//bf:hotpath
func (l *Filter) ObserveBatchInto(pkts []packet.Packet, out []filtering.Verdict) []filtering.Verdict {
	out = filtering.GrowVerdicts(out, len(pkts))
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.elapsed()
	for i := range pkts {
		pkts[i].Time = now
	}
	return l.inner.ProcessBatchInto(pkts, out)
}

// The adapter is itself a filtering.BatchFilter, so wall-clock
// deployments compose with everything that speaks the batch contract
// (Chain stages, benchmarks, the replay drivers). The wall clock stays
// authoritative: the Process* methods stamp packets with the elapsed
// monotonic time exactly like Observe*, overwriting any Time already set,
// and AdvanceTo ignores the caller's timestamp in favor of "now".
var _ filtering.BatchFilter = (*Filter)(nil)

// Process implements filtering.PacketFilter: it is Observe for a packet
// already materialized as a packet.Packet. pkt.Time is overwritten with
// the current wall-clock elapsed time.
//
//bf:hotpath
func (l *Filter) Process(pkt packet.Packet) filtering.Verdict {
	return l.Observe(pkt.Tuple, pkt.Dir, pkt.Flags, pkt.Length)
}

// ProcessBatch implements filtering.BatchFilter; it is ObserveBatch (all
// packet timestamps are overwritten with "now").
func (l *Filter) ProcessBatch(pkts []packet.Packet) []filtering.Verdict {
	return l.ObserveBatch(pkts)
}

// ProcessBatchInto implements filtering.BatchFilter; it is
// ObserveBatchInto (all packet timestamps are overwritten with "now").
//
//bf:hotpath
func (l *Filter) ProcessBatchInto(pkts []packet.Packet, out []filtering.Verdict) []filtering.Verdict {
	return l.ObserveBatchInto(pkts, out)
}

// AdvanceTo implements filtering.PacketFilter. The wall clock is
// authoritative for a live filter, so the argument is ignored and the
// wrapped filter advances to the current elapsed time — the same firing
// StartRotations performs on its ticks.
func (l *Filter) AdvanceTo(time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.inner.AdvanceTo(l.elapsed())
}

// MemoryBytes forwards to the wrapped filter under the lock.
func (l *Filter) MemoryBytes() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inner.MemoryBytes()
}

// RotateEvery returns the wrapped filter's rotation period.
func (l *Filter) RotateEvery() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inner.RotateEvery()
}

// Name forwards to the wrapped filter under the lock.
func (l *Filter) Name() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inner.Name()
}

// PunchHole forwards to the wrapped filter under the lock (§5.1).
func (l *Filter) PunchHole(local packet.Addr, localPort uint16, remote packet.Addr, proto packet.Proto) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.inner.PunchHole(local, localPort, remote, proto)
}

// Utilization returns the current-vector utilization at wall-clock time
// (rotations due up to now fire first).
func (l *Filter) Utilization() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.inner.AdvanceTo(l.elapsed())
	return l.inner.Utilization()
}

// Counters returns cumulative packet counters.
func (l *Filter) Counters() filtering.Counters {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inner.Counters()
}

// Stats returns a full introspection snapshot at wall-clock time
// (rotations due up to now fire first). For a sharded inner filter this
// is the cross-shard aggregate.
func (l *Filter) Stats() core.Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.inner.AdvanceTo(l.elapsed())
	return l.inner.Stats()
}

// ShardStats returns per-shard snapshots at wall-clock time when the
// wrapped filter is sharded, and nil otherwise.
func (l *Filter) ShardStats() []core.Stats {
	ss, ok := l.inner.(shardStatser)
	if !ok {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.inner.AdvanceTo(l.elapsed())
	return ss.ShardStats()
}

// tenantStatser is the optional per-tenant introspection surface
// (*tenant.Set); see Filter.TenantStats.
type tenantStatser interface {
	TenantStats() []tenant.Stat
	UnroutedPackets() uint64
}

// TenantStats returns per-tenant snapshots at wall-clock time when the
// wrapped filter is a multi-tenant set, and nil otherwise.
func (l *Filter) TenantStats() []tenant.Stat {
	ts, ok := l.inner.(tenantStatser)
	if !ok {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.inner.AdvanceTo(l.elapsed())
	return ts.TenantStats()
}

// UnroutedPackets reports the wrapped tenant set's pass-through count,
// or 0 for any other inner filter.
func (l *Filter) UnroutedPackets() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if ts, ok := l.inner.(tenantStatser); ok {
		return ts.UnroutedPackets()
	}
	return 0
}

// rebalancer is the optional budget surface (*tenant.Set).
type rebalancer interface {
	Rebalance(now time.Duration) (int, error)
}

// ErrNoRebalance is returned by Rebalance when the wrapped filter is not
// a budgeted tenant set.
var ErrNoRebalance = errors.New("live: wrapped filter has no budget to rebalance")

// Rebalance re-plans a wrapped tenant set's shared memory budget at the
// current wall-clock instant (see tenant.Set.Rebalance). The adapter
// lock is held: the resize swap and the dispatch path never interleave.
func (l *Filter) Rebalance() (int, error) {
	rb, ok := l.inner.(rebalancer)
	if !ok {
		return 0, ErrNoRebalance
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return rb.Rebalance(l.elapsed())
}

// ErrNotSnapshottable is returned by WriteSnapshot when the wrapped
// filter does not support snapshot serialization.
var ErrNotSnapshottable = errors.New("live: wrapped filter cannot write snapshots")

// snapshotter is the optional snapshot surface of the wrapped filter;
// every core flavor (Filter, Safe, Sharded) implements it.
type snapshotter interface {
	WriteSnapshot(w io.Writer) error
}

// WriteSnapshot quiesces the filter (the adapter lock is held for the
// whole write, so no packet lands mid-stream), advances the rotation
// clock to "now" and serializes the wrapped filter's state. The snapshot
// records the filter clock — the elapsed monotonic time this adapter
// stamps on packets — so ReadSnapshot can rebuild the wall-clock→
// filter-clock offset on restore.
func (l *Filter) WriteSnapshot(w io.Writer) error {
	snap, ok := l.inner.(snapshotter)
	if !ok {
		return ErrNotSnapshottable
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.inner.AdvanceTo(l.elapsed())
	return snap.WriteSnapshot(w)
}

// ReadSnapshot reconstructs a live filter from a stream written by
// WriteSnapshot (or by any core flavor's WriteSnapshot): the inner flavor
// is taken from the snapshot, coreOpts (e.g. core.WithAPD) are applied on
// top of the serialized configuration, and liveOpts configure the adapter
// itself. The adapter's start time is back-dated so the filter clock
// resumes exactly where the snapshot left it — marks keep their residual
// lifetime across the restart instead of being aged (or reset) by the
// downtime, which is the conservative choice for admitting established
// flows.
func ReadSnapshot(r io.Reader, coreOpts []core.Option, liveOpts ...Option) (*Filter, error) {
	inner, err := core.ReadAnySnapshot(r, coreOpts...)
	if err != nil {
		return nil, err
	}
	return Adopt(inner, liveOpts...)
}

// StartRotations launches a background goroutine that advances the filter
// clock every interval, so marks expire on schedule even when no packets
// arrive. It returns an error if rotations are already running. Always
// pair with StopRotations.
func (l *Filter) StartRotations(interval time.Duration) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ticker.stop != nil {
		return errors.New("live: rotations already running")
	}
	if interval <= 0 {
		interval = l.inner.RotateEvery()
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	l.ticker.stop, l.ticker.done = stop, done
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				l.mu.Lock()
				l.inner.AdvanceTo(l.elapsed())
				l.mu.Unlock()
			case <-stop:
				return
			}
		}
	}()
	return nil
}

// StopRotations stops the background ticker and waits for it to exit. It
// is a no-op if rotations are not running.
func (l *Filter) StopRotations() {
	l.mu.Lock()
	stop, done := l.ticker.stop, l.ticker.done
	l.ticker.stop, l.ticker.done = nil, nil
	l.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}
