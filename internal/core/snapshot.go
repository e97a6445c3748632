package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/packet"
)

// Snapshot serialization: an edge router restarting (or failing over to a
// standby) would otherwise come up with an empty bitmap and drop every
// in-flight connection's incoming packets for up to T_e. WriteSnapshot /
// ReadSnapshot persist the full filter state — configuration, rotation
// clock, counters and all k bit vectors — in a small binary format.
//
// Format v2 (current) is built for crash safety: every region of the
// stream is covered by a CRC32C (Castagnoli) checksum, so a torn write,
// a truncated file or a flipped bit is detected instead of silently
// restoring garbage marks. The layout is
//
//	container header  magic "BMF2" | version | kind | sections | CRC32C
//	section × N       filter header (104 B) | CRC32C
//	                  vector payload (2^n/8 B) | CRC32C   × k
//
// kind selects the flavor: a plain/Safe filter writes one section, a
// Sharded filter writes one section per shard (each shard's perturbed
// seed rides in its own header, so the restored composite routes flows
// identically). Top-level readers additionally reject trailing bytes, so
// a concatenation accident cannot masquerade as a valid snapshot.
//
// Format v1 ("BMF1", a bare header + raw vectors with no checksums) is no
// longer decoded: a stream carrying its magic is refused with
// ErrSnapshotVersion.
//
// APD policies hold live traffic windows and are deliberately not
// serialized; re-attach one via options when reconstructing (the windowed
// indicators refill within one window anyway).

const (
	snapshotMagicV1 = 0x424d4631 // "BMF1"
	snapshotMagicV2 = 0x424d4632 // "BMF2"
	snapshotVersion = 2

	snapshotKindFilter  = 1
	snapshotKindSharded = 2

	containerHeaderLen = 16  // magic, version, kind, sections (before CRC)
	sectionHeaderLen   = 104 // six uint32 + four int64/uint64 + six uint64

	// maxSnapshotShards bounds the section count a v2 container may
	// declare, so a corrupt count cannot drive a huge allocation before
	// the per-section checksums get a chance to reject the stream.
	maxSnapshotShards = 1 << 16
)

// castagnoli is the CRC32C polynomial table shared by all snapshot
// framing.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Snapshot format errors.
var (
	ErrSnapshotMagic   = errors.New("core: bad snapshot magic")
	ErrSnapshotVersion = errors.New("core: unsupported snapshot version")
	ErrSnapshotCorrupt = errors.New("core: corrupt snapshot")
	// ErrSnapshotKind is returned when a snapshot holds a different
	// filter flavor than the reader expects (e.g. ReadSnapshot on a
	// sharded stream — use ReadShardedSnapshot or ReadAnySnapshot).
	ErrSnapshotKind = errors.New("core: snapshot holds a different filter flavor")
)

// Snapshottable is the surface shared by every filter flavor that can be
// checkpointed: the batched data plane, introspection, and snapshot
// output. *Filter, *Safe and *Sharded all implement it, and it satisfies
// the live adapter's Inner interface, so ReadAnySnapshot can restore
// whichever flavor a stream holds.
type Snapshottable interface {
	filtering.BatchFilter
	WriteSnapshot(w io.Writer) error
	PunchHole(local packet.Addr, localPort uint16, remote packet.Addr, proto packet.Proto)
	Stats() Stats
	Utilization() float64
	RotateEvery() time.Duration
}

var (
	_ Snapshottable = (*Filter)(nil)
	_ Snapshottable = (*Safe)(nil)
	_ Snapshottable = (*Sharded)(nil)
)

// sectionHeader is the per-filter state record inside a v2 container.
type sectionHeader struct {
	Order       uint32
	Vectors     uint32
	Hashes      uint32
	MarkPolicy  uint32
	TuplePolicy uint32
	Idx         uint32
	RotateNs    int64
	Seed        uint64
	NowNs       int64
	NextRotNs   int64
	Rotations   uint64
	Marks       uint64
	OutPackets  uint64
	InPackets   uint64
	InPassed    uint64
	InDropped   uint64
}

func (h *sectionHeader) encode(buf []byte) {
	le := binary.LittleEndian
	le.PutUint32(buf[0:], h.Order)
	le.PutUint32(buf[4:], h.Vectors)
	le.PutUint32(buf[8:], h.Hashes)
	le.PutUint32(buf[12:], h.MarkPolicy)
	le.PutUint32(buf[16:], h.TuplePolicy)
	le.PutUint32(buf[20:], h.Idx)
	le.PutUint64(buf[24:], uint64(h.RotateNs))
	le.PutUint64(buf[32:], h.Seed)
	le.PutUint64(buf[40:], uint64(h.NowNs))
	le.PutUint64(buf[48:], uint64(h.NextRotNs))
	le.PutUint64(buf[56:], h.Rotations)
	le.PutUint64(buf[64:], h.Marks)
	le.PutUint64(buf[72:], h.OutPackets)
	le.PutUint64(buf[80:], h.InPackets)
	le.PutUint64(buf[88:], h.InPassed)
	le.PutUint64(buf[96:], h.InDropped)
}

func (h *sectionHeader) decode(buf []byte) {
	le := binary.LittleEndian
	h.Order = le.Uint32(buf[0:])
	h.Vectors = le.Uint32(buf[4:])
	h.Hashes = le.Uint32(buf[8:])
	h.MarkPolicy = le.Uint32(buf[12:])
	h.TuplePolicy = le.Uint32(buf[16:])
	h.Idx = le.Uint32(buf[20:])
	h.RotateNs = int64(le.Uint64(buf[24:]))
	h.Seed = le.Uint64(buf[32:])
	h.NowNs = int64(le.Uint64(buf[40:]))
	h.NextRotNs = int64(le.Uint64(buf[48:]))
	h.Rotations = le.Uint64(buf[56:])
	h.Marks = le.Uint64(buf[64:])
	h.OutPackets = le.Uint64(buf[72:])
	h.InPackets = le.Uint64(buf[80:])
	h.InPassed = le.Uint64(buf[88:])
	h.InDropped = le.Uint64(buf[96:])
}

// writeFull is w.Write with the short-write case (n < len(p), nil error,
// an io.Writer contract violation real fault injectors love) surfaced as
// io.ErrShortWrite instead of silently truncating the snapshot.
func writeFull(w io.Writer, p []byte) error {
	n, err := w.Write(p)
	if err == nil && n < len(p) {
		err = io.ErrShortWrite
	}
	return err
}

// writeContainerHeader emits the framed v2 container prologue.
func writeContainerHeader(w io.Writer, kind, sections uint32) error {
	var buf [containerHeaderLen + 4]byte
	le := binary.LittleEndian
	le.PutUint32(buf[0:], snapshotMagicV2)
	le.PutUint32(buf[4:], snapshotVersion)
	le.PutUint32(buf[8:], kind)
	le.PutUint32(buf[12:], sections)
	le.PutUint32(buf[16:], crc32.Checksum(buf[:containerHeaderLen], castagnoli))
	if err := writeFull(w, buf[:]); err != nil {
		return fmt.Errorf("core: write snapshot container: %w", err)
	}
	return nil
}

// writeSection emits one framed filter section: checksummed header
// followed by each bit vector with its own checksum.
func (f *Filter) writeSection(w io.Writer) error {
	hdr := sectionHeader{
		Order:       uint32(f.cfg.order),
		Vectors:     uint32(f.cfg.vectors),
		Hashes:      uint32(f.cfg.hashes),
		MarkPolicy:  uint32(f.cfg.markPolicy),
		TuplePolicy: uint32(f.cfg.tuplePolicy),
		Idx:         uint32(f.idx),
		RotateNs:    int64(f.cfg.rotateEvery),
		Seed:        f.cfg.seed,
		NowNs:       int64(f.now),
		NextRotNs:   int64(f.nextRotate),
		Rotations:   f.rotations,
		Marks:       f.marks,
		OutPackets:  f.counters.OutPackets,
		InPackets:   f.counters.InPackets,
		InPassed:    f.counters.InPassed,
		InDropped:   f.counters.InDropped,
	}
	var buf [sectionHeaderLen + 4]byte
	hdr.encode(buf[:])
	binary.LittleEndian.PutUint32(buf[sectionHeaderLen:],
		crc32.Checksum(buf[:sectionHeaderLen], castagnoli))
	if err := writeFull(w, buf[:]); err != nil {
		return fmt.Errorf("core: write snapshot header: %w", err)
	}
	for _, v := range f.vectors {
		sum := crc32.New(castagnoli)
		if _, err := v.WriteTo(io.MultiWriter(w, sum)); err != nil {
			return fmt.Errorf("core: write snapshot vector: %w", err)
		}
		var crcBuf [4]byte
		binary.LittleEndian.PutUint32(crcBuf[:], sum.Sum32())
		if err := writeFull(w, crcBuf[:]); err != nil {
			return fmt.Errorf("core: write snapshot vector checksum: %w", err)
		}
	}
	return nil
}

// WriteSnapshot serializes the filter state to w in format v2.
func (f *Filter) WriteSnapshot(w io.Writer) error {
	if err := writeContainerHeader(w, snapshotKindFilter, 1); err != nil {
		return err
	}
	return f.writeSection(w)
}

// WriteSnapshot serializes the wrapped filter under the lock, so
// concurrent packet pumps see the snapshot as one quiesced point in time.
func (s *Safe) WriteSnapshot(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.WriteSnapshot(w)
}

// WriteSnapshot serializes every shard as its own framed section. Each
// shard is locked only while its section streams out, so the composite
// keeps serving other shards; a flow's marks all live in one shard, so
// per-shard consistency is exactly flow-level consistency.
func (s *Sharded) WriteSnapshot(w io.Writer) error {
	if err := writeContainerHeader(w, snapshotKindSharded, uint32(len(s.shards))); err != nil {
		return err
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		err := sh.f.writeSection(w)
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// readContainerHeader parses and validates the framed v2 prologue and
// returns (kind, sections).
func readContainerHeader(r io.Reader) (kind, sections uint32, err error) {
	var pre [8]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return 0, 0, fmt.Errorf("%w: short container header: %v", ErrSnapshotCorrupt, err)
	}
	le := binary.LittleEndian
	magic, version := le.Uint32(pre[0:]), le.Uint32(pre[4:])
	switch magic {
	case snapshotMagicV2:
	case snapshotMagicV1:
		return 0, 0, fmt.Errorf("%w: v1 (\"BMF1\") streams are no longer readable", ErrSnapshotVersion)
	default:
		return 0, 0, fmt.Errorf("%w: %#08x", ErrSnapshotMagic, magic)
	}
	if version != snapshotVersion {
		return 0, 0, fmt.Errorf("%w: %d", ErrSnapshotVersion, version)
	}
	var rest [containerHeaderLen + 4 - 8]byte
	if _, err := io.ReadFull(r, rest[:]); err != nil {
		return 0, 0, fmt.Errorf("%w: short container header: %v", ErrSnapshotCorrupt, err)
	}
	sum := crc32.Checksum(pre[:], castagnoli)
	sum = crc32.Update(sum, castagnoli, rest[:containerHeaderLen-8])
	if sum != le.Uint32(rest[containerHeaderLen-8:]) {
		return 0, 0, fmt.Errorf("%w: container checksum mismatch", ErrSnapshotCorrupt)
	}
	kind = le.Uint32(rest[0:])
	sections = le.Uint32(rest[4:])
	switch kind {
	case snapshotKindFilter:
		if sections != 1 {
			return 0, 0, fmt.Errorf("%w: filter snapshot with %d sections", ErrSnapshotCorrupt, sections)
		}
	case snapshotKindSharded:
		if sections < 1 || sections > maxSnapshotShards || sections&(sections-1) != 0 {
			return 0, 0, fmt.Errorf("%w: shard count %d", ErrSnapshotCorrupt, sections)
		}
	default:
		return 0, 0, fmt.Errorf("%w: kind %d", ErrSnapshotCorrupt, kind)
	}
	return kind, sections, nil
}

// validateSectionHeader applies the semantic integrity checks of a
// decoded section header.
func validateSectionHeader(hdr *sectionHeader, f *Filter) error {
	if int(hdr.Idx) >= f.cfg.vectors {
		return fmt.Errorf("%w: index %d of %d vectors", ErrSnapshotCorrupt, hdr.Idx, f.cfg.vectors)
	}
	if hdr.NowNs < 0 {
		return fmt.Errorf("%w: negative clock %v", ErrSnapshotCorrupt, time.Duration(hdr.NowNs))
	}
	if hdr.NextRotNs <= hdr.NowNs {
		return fmt.Errorf("%w: rotation clock %v not after %v",
			ErrSnapshotCorrupt, time.Duration(hdr.NextRotNs), time.Duration(hdr.NowNs))
	}
	// The filter invariant is nextRotate ∈ (now, now+Δt]: a crafted
	// snapshot with a farther rotation deadline would silently extend
	// mark lifetime beyond T_e. NowNs ≥ 0 above makes the subtraction
	// overflow-free.
	if hdr.NextRotNs-hdr.NowNs > hdr.RotateNs {
		return fmt.Errorf("%w: next rotation %v more than Δt=%v after %v",
			ErrSnapshotCorrupt, time.Duration(hdr.NextRotNs),
			time.Duration(hdr.RotateNs), time.Duration(hdr.NowNs))
	}
	if hdr.InPassed > hdr.InPackets || hdr.InPassed+hdr.InDropped != hdr.InPackets {
		return fmt.Errorf("%w: incoming counters %d = %d passed + %d dropped don't add up",
			ErrSnapshotCorrupt, hdr.InPackets, hdr.InPassed, hdr.InDropped)
	}
	return nil
}

// buildSectionFilter constructs a filter from a decoded header, applying
// caller options on top of the serialized configuration.
func buildSectionFilter(hdr *sectionHeader, opts []Option) (*Filter, error) {
	base := []Option{
		WithOrder(uint(hdr.Order)),
		WithVectors(int(hdr.Vectors)),
		WithHashes(int(hdr.Hashes)),
		WithRotateEvery(time.Duration(hdr.RotateNs)),
		WithSeed(hdr.Seed),
		WithMarkPolicy(MarkPolicy(hdr.MarkPolicy)),
		WithTuplePolicy(TuplePolicy(hdr.TuplePolicy)),
	}
	f, err := New(append(base, opts...)...)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	if err := validateSectionHeader(hdr, f); err != nil {
		return nil, err
	}
	f.idx = int(hdr.Idx)
	f.now = time.Duration(hdr.NowNs)
	f.nextRotate = time.Duration(hdr.NextRotNs)
	f.rotations = hdr.Rotations
	f.marks = hdr.Marks
	f.counters.OutPackets = hdr.OutPackets
	f.counters.InPackets = hdr.InPackets
	f.counters.InPassed = hdr.InPassed
	f.counters.InDropped = hdr.InDropped
	return f, nil
}

// readSection decodes one framed v2 filter section.
func readSection(r io.Reader, opts []Option) (*Filter, error) {
	var buf [sectionHeaderLen + 4]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return nil, fmt.Errorf("%w: short section header: %v", ErrSnapshotCorrupt, err)
	}
	le := binary.LittleEndian
	if crc32.Checksum(buf[:sectionHeaderLen], castagnoli) != le.Uint32(buf[sectionHeaderLen:]) {
		return nil, fmt.Errorf("%w: section header checksum mismatch", ErrSnapshotCorrupt)
	}
	var hdr sectionHeader
	hdr.decode(buf[:])
	f, err := buildSectionFilter(&hdr, opts)
	if err != nil {
		return nil, err
	}
	for _, v := range f.vectors {
		sum := crc32.New(castagnoli)
		if _, err := v.ReadFrom(io.TeeReader(r, sum)); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
		}
		var crcBuf [4]byte
		if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
			return nil, fmt.Errorf("%w: short vector checksum: %v", ErrSnapshotCorrupt, err)
		}
		if sum.Sum32() != le.Uint32(crcBuf[:]) {
			return nil, fmt.Errorf("%w: vector checksum mismatch", ErrSnapshotCorrupt)
		}
	}
	// The checksums prove the words are the ones written, not that a
	// filter wrote them: mark's shortcut trusts the nesting invariant (see
	// Filter.mark), and a crafted bit set only in the newest vector would
	// make it skip the marks a legitimate reply depends on.
	if f.cfg.markPolicy == MarkAllVectors && !f.nested() {
		return nil, fmt.Errorf("%w: vectors are not nested by age", ErrSnapshotCorrupt)
	}
	return f, nil
}

// expectEOF rejects trailing bytes after a fully decoded snapshot: a
// concatenated or padded stream is not the stream the writer produced.
func expectEOF(r io.Reader) error {
	var one [1]byte
	if n, err := r.Read(one[:]); n > 0 || (err != nil && err != io.EOF) {
		return fmt.Errorf("%w: trailing bytes after snapshot", ErrSnapshotCorrupt)
	}
	return nil
}

// ReadSnapshot reconstructs a single (unsharded) filter from a stream
// produced by Filter.WriteSnapshot or Safe.WriteSnapshot. Additional
// options (e.g. WithAPD) are applied on top of the serialized
// configuration. The stream must end with the snapshot; trailing bytes are
// rejected as corruption.
func ReadSnapshot(r io.Reader, opts ...Option) (*Filter, error) {
	kind, _, err := readContainerHeader(r)
	if err != nil {
		return nil, err
	}
	if kind != snapshotKindFilter {
		return nil, fmt.Errorf("%w: sharded snapshot (use ReadShardedSnapshot)", ErrSnapshotKind)
	}
	f, err := readSection(r, opts)
	if err != nil {
		return nil, err
	}
	if err := expectEOF(r); err != nil {
		return nil, err
	}
	return f, nil
}

// ReadSafeSnapshot is ReadSnapshot returning the filter already wrapped
// for concurrent use.
func ReadSafeSnapshot(r io.Reader, opts ...Option) (*Safe, error) {
	f, err := ReadSnapshot(r, opts...)
	if err != nil {
		return nil, err
	}
	return NewSafe(f), nil
}

// ReadShardedSnapshot reconstructs a sharded filter from a stream
// produced by Sharded.WriteSnapshot. The shard count comes from the
// snapshot (it is structural: flow routing depends on it), every shard's
// configuration must agree, and an APD policy supplied via WithAPD is
// cloned per shard exactly as NewSharded does.
func ReadShardedSnapshot(r io.Reader, opts ...Option) (*Sharded, error) {
	kind, sections, err := readContainerHeader(r)
	if err != nil {
		return nil, err
	}
	if kind != snapshotKindSharded {
		return nil, fmt.Errorf("%w: single-filter snapshot (use ReadSnapshot)", ErrSnapshotKind)
	}
	s, err := readShardedSections(r, int(sections), opts)
	if err != nil {
		return nil, err
	}
	if err := expectEOF(r); err != nil {
		return nil, err
	}
	return s, nil
}

// readShardedSections decodes the per-shard sections and reassembles the
// composite.
func readShardedSections(r io.Reader, n int, opts []Option) (*Sharded, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o.apply(&cfg)
	}
	cloner, cloneable := cfg.apd.(PolicyCloner)
	if _, stateful := cfg.apd.(PolicyResetter); stateful && !cloneable {
		return nil, fmt.Errorf("%w: APD policy %q holds mutable state but implements no ClonePolicy; one instance cannot be shared across shard locks",
			ErrConfig, cfg.apd.Name())
	}
	// readContainerHeader already validated the section count, but n came
	// off the wire: re-check locally so this allocation is bounded even if
	// a future caller skips that validation.
	if n < 1 || n > maxSnapshotShards || n&(n-1) != 0 {
		return nil, fmt.Errorf("%w: shard count %d", ErrSnapshotCorrupt, n)
	}
	s := &Sharded{
		shards: make([]*Safe, n),
		mask:   uint64(n - 1),
	}
	var f0 *Filter // shard 0, for cross-shard configuration checks
	for i := range s.shards {
		shardOpts := opts
		if cloneable {
			p := cloner.ClonePolicy()
			if p == nil {
				return nil, fmt.Errorf("%w: APD policy %q cloned to nil", ErrConfig, cfg.apd.Name())
			}
			if sc, ok := p.(PolicyShardScaler); ok {
				sc.ScaleForShards(n)
			}
			shardOpts = append(append([]Option(nil), opts...), WithAPD(p))
		}
		f, err := readSection(r, shardOpts)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		if i == 0 {
			f0 = f
		} else {
			a, b := f0.cfg, f.cfg
			if a.order != b.order || a.vectors != b.vectors || a.hashes != b.hashes ||
				a.rotateEvery != b.rotateEvery || a.markPolicy != b.markPolicy ||
				a.tuplePolicy != b.tuplePolicy {
				return nil, fmt.Errorf("%w: shard %d configuration differs from shard 0",
					ErrSnapshotCorrupt, i)
			}
		}
		s.shards[i] = NewSafe(f)
	}
	return s, nil
}

// ReadAnySnapshot reconstructs whichever filter flavor the stream holds:
// a *Filter for single-filter snapshots, a *Sharded for sharded
// ones. The live adapter and the checkpoint restore path use it so a
// daemon restarts into the same flavor it checkpointed.
func ReadAnySnapshot(r io.Reader, opts ...Option) (Snapshottable, error) {
	kind, sections, err := readContainerHeader(r)
	if err != nil {
		return nil, err
	}
	var restored Snapshottable
	switch kind {
	case snapshotKindFilter:
		restored, err = readSection(r, opts)
	default: // snapshotKindSharded, already validated
		restored, err = readShardedSections(r, int(sections), opts)
	}
	if err != nil {
		return nil, err
	}
	if err := expectEOF(r); err != nil {
		return nil, err
	}
	return restored, nil
}
