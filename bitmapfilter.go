// Package bitmapfilter is the public API of this repository: a Go
// implementation of the bitmap filter from "Mitigating Active Attacks
// Towards Client Networks Using the Bitmap Filter" (Huang, Chen, Lei;
// DSN 2006).
//
// A bitmap filter is a composite of k rotating Bloom-filter bit vectors of
// 2^n bits installed at the entry point of a client network. Outgoing
// packets mark the hash positions of their partial address tuple in all k
// vectors; incoming packets are admitted only if all positions are set in
// the current vector; every Δt seconds the oldest vector is zeroed. The
// result behaves like a stateful-inspection firewall whose state expires
// after T_e = k·Δt, but with O(1) per-packet cost and a fixed
// (k·2^n)/8-byte footprint.
//
// Quick start:
//
//	f, err := bitmapfilter.New() // the paper's {4×20}, m=3, Δt=5s
//	if err != nil { ... }
//	verdict := f.Process(bitmapfilter.Packet{
//		Time:  elapsed,            // virtual or wall-clock offset
//		Tuple: tuple,              // 4-tuple + protocol
//		Dir:   bitmapfilter.Outgoing,
//	})
//
// Packet sources that deliver bursts (NIC rings, pcap buffers) should use
// the batched data plane instead — one call per burst, and with a reused
// verdict buffer the steady state allocates nothing:
//
//	verdicts = f.ProcessBatchInto(pkts, verdicts) // see BatchFilter
//
// See examples/quickstart for a complete program, internal/core for the
// implementation, and DESIGN.md for the experiment index.
package bitmapfilter

import (
	"io"
	"time"

	"bitmapfilter/internal/core"
	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/live"
	"bitmapfilter/internal/packet"
)

// Core packet-model types, aliased from the implementation packages so
// callers need only this import.
type (
	// Packet is one observed packet with its timestamp, tuple,
	// direction, TCP flags and length.
	Packet = packet.Packet
	// Tuple is the address tuple {src, sport, dst, dport, proto}.
	Tuple = packet.Tuple
	// Addr is an IPv4 address in host byte order.
	Addr = packet.Addr
	// Prefix is an IPv4 CIDR prefix.
	Prefix = packet.Prefix
	// Proto is a transport protocol number.
	Proto = packet.Proto
	// Direction tells whether a packet leaves or enters the client
	// network.
	Direction = packet.Direction
	// Flags holds TCP control flags.
	Flags = packet.Flags
	// Verdict is a filter decision.
	Verdict = filtering.Verdict
	// Counters accumulates per-filter packet statistics.
	Counters = filtering.Counters
	// PacketFilter is the interface shared by the bitmap filter and the
	// SPI baselines in internal/flowtable.
	PacketFilter = filtering.PacketFilter
	// BatchFilter is a PacketFilter with a batched data plane:
	// ProcessBatch plus the allocation-free ProcessBatchInto. Filter,
	// Safe, and Sharded implement it natively.
	BatchFilter = filtering.BatchFilter
)

// Re-exported enum values.
const (
	TCP = packet.TCP
	UDP = packet.UDP

	Outgoing = packet.Outgoing
	Incoming = packet.Incoming

	Pass = filtering.Pass
	Drop = filtering.Drop

	FIN = packet.FIN
	SYN = packet.SYN
	RST = packet.RST
	PSH = packet.PSH
	ACK = packet.ACK
	URG = packet.URG
)

// Wire-decode sentinel errors, re-exported for callers feeding the filter
// from raw frames (compare with errors.Is).
var (
	// ErrFragmented rejects non-initial IPv4 fragments: their transport
	// header is absent, so no 4-tuple exists to judge.
	ErrFragmented = packet.ErrFragmented
	// ErrTooLong rejects packets whose encoded IP length would overflow
	// the 16-bit total-length field.
	ErrTooLong = packet.ErrTooLong
)

// DecodeInto fills pkt's Tuple, Dir, Flags and Length from a raw
// Ethernet/IPv4/TCP-or-UDP frame with zero allocations — the decoder of the
// live packet plane (cmd/bfwall) — leaving pkt.Time for the caller (capture
// timestamp). It validates structure and the IPv4 header checksum but skips
// the transport checksum, which the filter never consults. pkt is
// unmodified on error.
func DecodeInto(pkt *Packet, frame []byte) error { return packet.DecodeInto(pkt, frame) }

// AddrFrom4 builds an Addr from four octets.
func AddrFrom4(a, b, c, d byte) Addr { return packet.AddrFrom4(a, b, c, d) }

// PrefixFrom returns the CIDR prefix base/bits.
func PrefixFrom(base Addr, bits uint8) Prefix { return packet.PrefixFrom(base, bits) }

// Filter is the {k×n}-bitmap filter (not safe for concurrent use; see
// Safe).
type Filter = core.Filter

// Safe is a goroutine-safe wrapper around Filter.
type Safe = core.Safe

// Option configures a Filter.
type Option = core.Option

// Stats is the point-in-time introspection snapshot returned by
// Filter.Stats and LiveFilter.Stats.
type Stats = core.Stats

// DropPolicy is an adaptive-packet-dropping indicator (§5.3).
type DropPolicy = core.DropPolicy

// PolicyResetter is the optional DropPolicy extension Filter.Reset uses to
// flush indicator windows along with the bitmap.
type PolicyResetter = core.PolicyResetter

// PolicyCloner is the optional DropPolicy extension NewSharded uses to
// give every shard its own policy instance; stateful policies that cannot
// clone are rejected. Both built-in policies implement it.
type PolicyCloner = core.PolicyCloner

// PolicyShardScaler is the optional DropPolicy extension NewSharded uses
// to rescale a per-shard clone to the 1/S traffic partition it observes
// (BandwidthPolicy divides its link capacity by S).
type PolicyShardScaler = core.PolicyShardScaler

// BandwidthPolicy is the §5.3 APD design 1 indicator (drop probability =
// link bandwidth utilization).
type BandwidthPolicy = core.BandwidthPolicy

// RatioPolicy is the §5.3 APD design 2 indicator (drop probability driven
// by the in/out packet ratio).
type RatioPolicy = core.RatioPolicy

// AsBatch returns f's batched data plane: filters that implement
// BatchFilter natively (Filter, Safe, Sharded) are returned unchanged,
// anything else gets a generic per-packet fallback with identical
// verdicts.
func AsBatch(f PacketFilter) BatchFilter { return filtering.AsBatch(f) }

// Chain composes filter stages into one BatchFilter: packets flow through
// the stages in order and the first Drop short-circuits, so later stages
// never observe a dropped packet. The batch path feeds each stage only
// its predecessor's survivors (compacted in order, pooled scratch), which
// keeps stage state evolution identical to per-packet chaining. This is
// the composition point for layered defenses — e.g. a SYN-validation
// stage in front of the bitmap filter, or a TenantSet behind a rate
// limiter. Chain() passes everything; Chain(f) returns f unchanged.
func Chain(stages ...BatchFilter) BatchFilter { return filtering.Chain(stages...) }

// MarkPolicy and TuplePolicy select ablation variants of the filter.
type (
	MarkPolicy  = core.MarkPolicy
	TuplePolicy = core.TuplePolicy
)

// Re-exported policy values.
const (
	MarkAllVectors  = core.MarkAllVectors
	MarkCurrentOnly = core.MarkCurrentOnly
	PartialTuple    = core.PartialTuple
	FullTuple       = core.FullTuple
)

// Build is the unified constructor: one option bundle describes a
// complete deployment, with flavor selectors riding in the same slice as
// the bitmap parameters. It composes, inside-out:
//
//	Build(WithOrder(20))                          == New(...)
//	Build(WithConcurrencySafe(), ...)             == NewSafe(New(...))
//	Build(WithShards(8), ...)                     == NewSharded(8, ...)
//	Build(WithLiveClock(nil), ...)                == NewLive(<inner>, ...)
//	Build(WithShards(8), WithLiveClock(clk), ...) == NewLive(NewSharded(8, ...), WithClock(clk))
//
// The classic constructors below remain as thin wrappers and return their
// concrete types; Build is the surface that can be stored as
// configuration and applied uniformly — TenantSet construction takes the
// same bundle per tenant. The result always implements BatchFilter; it is
// goroutine-safe unless the bundle selected a bare single filter.
func Build(opts ...Option) (BatchFilter, error) {
	plan := core.PlanBuild(opts...)
	if !plan.Live {
		return core.Build(opts...)
	}
	// Wall-clock deployments: compose the core flavor with the live
	// request cancelled (core.Build rejects it otherwise), then wrap it
	// in the adapter driven by the requested clock.
	inner, err := core.Build(append(append(make([]Option, 0, len(opts)+1), opts...), core.ClearLive())...)
	if err != nil {
		return nil, err
	}
	var lopts []LiveOption
	if plan.Clock != nil {
		lopts = append(lopts, live.WithClock(plan.Clock))
	}
	return live.New(inner, lopts...)
}

// Flavor selectors for Build. They are ordinary Options, but only Build
// honors them: New and the other classic constructors reject bundles that
// carry flavor requests rather than silently ignoring them.

// WithShards selects the sharded flavor with the given shard count
// (rounded up to a power of two, exactly as NewSharded).
func WithShards(n int) Option { return core.WithShards(n) }

// WithConcurrencySafe selects a goroutine-safe filter (the Safe wrapper).
// It is implied for WithShards and WithLiveClock.
func WithConcurrencySafe() Option { return core.WithConcurrencySafe() }

// WithLiveClock selects the wall-clock adapter (LiveFilter) around the
// composed filter, driven by c; nil selects the real clock.
func WithLiveClock(c Clock) Option { return core.WithLiveClock(c) }

// New constructs a bitmap filter. With no options it is the paper's
// {4×20}-bitmap with m = 3 hash functions rotated every 5 seconds
// (512 KiB, T_e = 20 s). Equivalent to Build with no flavor selectors,
// typed as the concrete *Filter.
func New(opts ...Option) (*Filter, error) { return core.New(opts...) }

// NewSafe wraps a filter for concurrent use.
func NewSafe(f *Filter) *Safe { return core.NewSafe(f) }

// Sharded partitions one logical filter across independently locked shards
// for multi-core packet paths; flow-key routing keeps semantics identical
// to a single filter.
type Sharded = core.Sharded

// NewSharded builds a sharded filter (shard count rounded up to a power of
// two; each shard gets the configured per-filter memory). WithAPD works on
// the sharded flavor too: the policy is cloned per shard (PolicyCloner),
// with BandwidthPolicy capacity rescaled to each shard's 1/S traffic
// partition, and Sharded.Stats/APDSpared aggregate the per-shard state.
func NewSharded(shards int, opts ...Option) (*Sharded, error) {
	return core.NewSharded(shards, opts...)
}

// Configuration options (see the paper's §3.4 for the parameter
// trade-offs).
func WithOrder(n uint) Option                 { return core.WithOrder(n) }
func WithVectors(k int) Option                { return core.WithVectors(k) }
func WithHashes(m int) Option                 { return core.WithHashes(m) }
func WithRotateEvery(dt time.Duration) Option { return core.WithRotateEvery(dt) }
func WithSeed(seed uint64) Option             { return core.WithSeed(seed) }
func WithAPD(policy DropPolicy) Option        { return core.WithAPD(policy) }
func WithMarkPolicy(p MarkPolicy) Option      { return core.WithMarkPolicy(p) }
func WithTuplePolicy(p TuplePolicy) Option    { return core.WithTuplePolicy(p) }

// NewBandwidthPolicy returns the §5.3 APD design 1 (drop with probability
// equal to the link's bandwidth utilization).
func NewBandwidthPolicy(capacityBitsPerSec float64, window time.Duration) (*BandwidthPolicy, error) {
	return core.NewBandwidthPolicy(capacityBitsPerSec, window)
}

// NewRatioPolicy returns the §5.3 APD design 2 (drop probability driven by
// the in/out packet ratio between thresholds l and h).
func NewRatioPolicy(low, high float64, window time.Duration) (*RatioPolicy, error) {
	return core.NewRatioPolicy(low, high, window)
}

// ReadSnapshot reconstructs a filter from a stream written by
// Filter.WriteSnapshot (e.g. for edge-router failover). Extra options such
// as WithAPD are applied on top of the serialized configuration.
func ReadSnapshot(r io.Reader, opts ...Option) (*Filter, error) {
	return core.ReadSnapshot(r, opts...)
}

// Snapshottable is the surface shared by every filter flavor that can be
// checkpointed; *Filter, *Safe and *Sharded implement it.
type Snapshottable = core.Snapshottable

// ErrSnapshotKind is returned when a snapshot holds a different filter
// flavor than the reader expects; ReadAnySnapshot accepts every flavor.
var ErrSnapshotKind = core.ErrSnapshotKind

// ReadSafeSnapshot is ReadSnapshot returning the filter already wrapped
// for concurrent use.
func ReadSafeSnapshot(r io.Reader, opts ...Option) (*Safe, error) {
	return core.ReadSafeSnapshot(r, opts...)
}

// ReadShardedSnapshot reconstructs a sharded filter from a stream written
// by Sharded.WriteSnapshot. The shard count comes from the snapshot (flow
// routing depends on it); an APD policy passed via WithAPD is cloned per
// shard exactly as NewSharded does.
func ReadShardedSnapshot(r io.Reader, opts ...Option) (*Sharded, error) {
	return core.ReadShardedSnapshot(r, opts...)
}

// ReadAnySnapshot reconstructs whichever filter flavor the stream holds —
// the restore path for checkpoints whose flavor is not known in advance.
func ReadAnySnapshot(r io.Reader, opts ...Option) (Snapshottable, error) {
	return core.ReadAnySnapshot(r, opts...)
}

// LiveFilter is the wall-clock deployment adapter: goroutine-safe, stamps
// packets with elapsed monotonic time, and can rotate in the background
// while the link is quiet.
type LiveFilter = live.Filter

// Clock abstracts the LiveFilter's time source for tests.
type Clock = live.Clock

// LiveOption configures NewLive.
type LiveOption = live.Option

// LiveInner is the filter surface NewLive accepts: *Filter, *Safe and
// *Sharded all satisfy it, so a deployment picks its concurrency flavor
// without changing the wall-clock adapter.
type LiveInner = live.Inner

// NewLive wraps a filter for wall-clock operation. The wrapped filter must
// not be used directly afterwards.
func NewLive(f LiveInner, opts ...LiveOption) (*LiveFilter, error) {
	return live.New(f, opts...)
}

// WithClock substitutes the LiveFilter's time source.
func WithClock(c Clock) LiveOption { return live.WithClock(c) }

// ReadLiveSnapshot reconstructs a wall-clock filter from a stream written
// by LiveFilter.WriteSnapshot (or any flavor's WriteSnapshot): the inner
// flavor comes from the snapshot and the adapter's clock is back-dated so
// marks keep their residual lifetime across the restart.
func ReadLiveSnapshot(r io.Reader, coreOpts []Option, liveOpts ...LiveOption) (*LiveFilter, error) {
	return live.ReadSnapshot(r, coreOpts, liveOpts...)
}
