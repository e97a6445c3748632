package tenant

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"bitmapfilter/internal/core"
	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/packet"
)

// Fleet snapshot format ("BMFT", version 1, little-endian): one framed
// section per tenant wrapping the tenant filter's ordinary v2 snapshot,
// so the whole multi-tenant data plane persists and restores atomically
// through internal/checkpoint like a single filter would.
//
//	header    magic "BMFT" | version u32 | tenantCount u32 | reserved u32
//	          | unroutedOut u64 | unroutedIn u64 | CRC32C(header) u32
//	section   idLen u32 | prefixBase u32 | prefixBits u32 | flavor u32
//	          | snapLen u64 | baseline {out,in,passed,dropped} u64×4
//	          | id bytes | CRC32C(section so far) u32
//	          | inner v2 snapshot (snapLen bytes) | CRC32C(inner) u32
//
// Every tenant is a bare filter, so the writer sets flavor to 0 and the
// inner snapshot is a single-filter container. Older writers set flavor
// bit 0 for a tenant behind a mutex wrapper, which serialized as its
// Filter, so the bytes are identical and the reader accepts the bit and
// restores the tenant bare. Any other flavor bit, and an inner sharded container, is
// refused. Every integrity failure is detected by a CRC or bound check
// before any tenant filter is constructed.
const (
	tenantMagic     = "BMFT"
	tenantVersion   = 1
	tenantHeaderLen = 4 + 4 + 4 + 4 + 8 + 8
	sectionFixedLen = 4 + 4 + 4 + 4 + 8 + 8*4

	flavorLocked = 1 << 0 // written by older writers only
)

var tenantCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxTenantSnapLen bounds one tenant's inner snapshot length field so a
// corrupt value is rejected up front; 16 GiB comfortably covers any
// geometry the core reader itself would accept, and the LimitReader
// means the bound never turns into an allocation.
const maxTenantSnapLen = 1 << 34

// WriteSnapshot serializes the whole fleet under the group's lock, so the
// snapshot is a consistent point-in-time image: no dispatch or resize
// interleaves.
func (s *Set) WriteSnapshot(w io.Writer) error {
	le := binary.LittleEndian
	head := func(unrouted filtering.Counters) error {
		var hdr [tenantHeaderLen + 4]byte
		copy(hdr[:4], tenantMagic)
		le.PutUint32(hdr[4:], tenantVersion)
		le.PutUint32(hdr[8:], uint32(len(s.tenants)))
		le.PutUint32(hdr[12:], 0)
		le.PutUint64(hdr[16:], unrouted.OutPackets)
		le.PutUint64(hdr[24:], unrouted.InPackets)
		le.PutUint32(hdr[tenantHeaderLen:], crc32.Checksum(hdr[:tenantHeaderLen], tenantCastagnoli))
		_, err := w.Write(hdr[:])
		return err
	}
	return s.WriteMembers(head, func(i int, inner []byte, baseline filtering.Counters) error {
		st := s.tenants[i]
		fixed := make([]byte, sectionFixedLen, sectionFixedLen+len(st.id)+4)
		le.PutUint32(fixed[0:], uint32(len(st.id)))
		le.PutUint32(fixed[4:], uint32(st.prefix.Base))
		le.PutUint32(fixed[8:], uint32(st.prefix.Bits))
		le.PutUint32(fixed[12:], 0) // flavor: bare
		le.PutUint64(fixed[16:], uint64(len(inner)))
		le.PutUint64(fixed[24:], baseline.OutPackets)
		le.PutUint64(fixed[32:], baseline.InPackets)
		le.PutUint64(fixed[40:], baseline.InPassed)
		le.PutUint64(fixed[48:], baseline.InDropped)
		fixed = append(fixed, st.id...)
		fixed = le.AppendUint32(fixed, crc32.Checksum(fixed, tenantCastagnoli))
		if _, err := w.Write(fixed); err != nil {
			return err
		}
		if _, err := w.Write(inner); err != nil {
			return err
		}
		_, err := w.Write(le.AppendUint32(nil, crc32.Checksum(inner, tenantCastagnoli)))
		return err
	})
}

// ReadSnapshot restores a fleet written by WriteSnapshot. Like the core
// reader, it rebuilds everything serializable from the stream: each
// tenant's seed and mark and tuple policies are in its section header.
// extra supplies what a snapshot does not hold, the APD policy, keyed by
// tenant id (nil for none), applied on top of the restored configuration.
// The restored Set carries no Budget; see AttachBudget.
func ReadSnapshot(r io.Reader, extra func(id string) []core.Option) (*Set, error) {
	le := binary.LittleEndian
	var hdr [tenantHeaderLen + 4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("tenant snapshot: header: %w", err)
	}
	if string(hdr[:4]) != tenantMagic {
		return nil, fmt.Errorf("tenant snapshot: bad magic %q", hdr[:4])
	}
	if v := le.Uint32(hdr[4:]); v != tenantVersion {
		return nil, fmt.Errorf("tenant snapshot: unsupported version %d", v)
	}
	if crc32.Checksum(hdr[:tenantHeaderLen], tenantCastagnoli) != le.Uint32(hdr[tenantHeaderLen:]) {
		return nil, fmt.Errorf("tenant snapshot: header checksum mismatch")
	}
	count := le.Uint32(hdr[8:])
	if count == 0 || count > maxTenants {
		return nil, fmt.Errorf("tenant snapshot: tenant count %d outside [1, %d]", count, maxTenants)
	}
	unroutedIn := le.Uint64(hdr[24:])
	unrouted := filtering.Counters{OutPackets: le.Uint64(hdr[16:]), InPackets: unroutedIn, InPassed: unroutedIn}

	states := make([]tenantState, 0, count)
	filters := make([]*core.Filter, 0, count)
	retired := make([]filtering.Counters, 0, count)
	for i := uint32(0); i < count; i++ {
		var fixed [sectionFixedLen]byte
		if _, err := io.ReadFull(r, fixed[:]); err != nil {
			return nil, fmt.Errorf("tenant snapshot: section %d: %w", i, err)
		}
		idLen := le.Uint32(fixed[0:])
		if idLen == 0 || idLen > maxIDLen {
			return nil, fmt.Errorf("tenant snapshot: section %d: id length %d outside [1, %d]", i, idLen, maxIDLen)
		}
		bits := le.Uint32(fixed[8:])
		if bits > 32 {
			return nil, fmt.Errorf("tenant snapshot: section %d: prefix length %d", i, bits)
		}
		flavor := le.Uint32(fixed[12:])
		if flavor&^flavorLocked != 0 {
			return nil, fmt.Errorf("tenant snapshot: section %d: unknown flavor bits %#x", i, flavor)
		}
		snapLen := le.Uint64(fixed[16:])
		if snapLen == 0 || snapLen > maxTenantSnapLen {
			return nil, fmt.Errorf("tenant snapshot: section %d: snapshot length %d outside [1, %d]", i, snapLen, uint64(maxTenantSnapLen))
		}
		idAndCRC := make([]byte, idLen+4)
		if _, err := io.ReadFull(r, idAndCRC); err != nil {
			return nil, fmt.Errorf("tenant snapshot: section %d: %w", i, err)
		}
		sum := crc32.Checksum(fixed[:], tenantCastagnoli)
		sum = crc32.Update(sum, tenantCastagnoli, idAndCRC[:idLen])
		if sum != le.Uint32(idAndCRC[idLen:]) {
			return nil, fmt.Errorf("tenant snapshot: section %d: header checksum mismatch", i)
		}
		id := string(idAndCRC[:idLen])
		prefix := packet.Prefix{Base: packet.Addr(le.Uint32(fixed[4:])), Bits: uint8(bits)}
		if canon := packet.PrefixFrom(prefix.Base, prefix.Bits); canon != prefix {
			return nil, fmt.Errorf("tenant snapshot: section %d: non-canonical prefix %v", i, prefix)
		}
		baseline := filtering.Counters{
			OutPackets: le.Uint64(fixed[24:]),
			InPackets:  le.Uint64(fixed[32:]),
			InPassed:   le.Uint64(fixed[40:]),
			InDropped:  le.Uint64(fixed[48:]),
		}

		var opts []core.Option
		if extra != nil {
			opts = extra(id)
		}
		crc := crc32.New(tenantCastagnoli)
		lr := io.LimitReader(r, int64(snapLen))
		inner, err := core.ReadSnapshot(io.TeeReader(lr, crc), opts...)
		if err != nil {
			return nil, fmt.Errorf("tenant snapshot: tenant %q: %w", id, err)
		}
		var want [4]byte
		if _, err := io.ReadFull(r, want[:]); err != nil {
			return nil, fmt.Errorf("tenant snapshot: tenant %q: %w", id, err)
		}
		if crc.Sum32() != le.Uint32(want[:]) {
			return nil, fmt.Errorf("tenant snapshot: tenant %q: snapshot checksum mismatch", id)
		}

		// The option bundle Rebalance replays is the caller's
		// non-serializable extras: the geometry options are pinned from the
		// running filter at rebuild time, so they need not appear in it.
		states = append(states, tenantState{id: id, prefix: prefix, opts: opts})
		filters = append(filters, inner)
		retired = append(retired, baseline)
	}
	if err := expectEOF(r); err != nil {
		return nil, fmt.Errorf("tenant snapshot: %w", err)
	}

	return newSet(states, core.NewFleet(filters, retired, unrouted), nil)
}

// expectEOF rejects trailing bytes after a well-formed snapshot, exactly
// like the core reader does.
func expectEOF(r io.Reader) error {
	var b [1]byte
	if n, err := r.Read(b[:]); n != 0 || err != io.EOF {
		return fmt.Errorf("trailing bytes after snapshot")
	}
	return nil
}

// AttachBudget attaches (or replaces) the shared-memory planner —
// primarily for snapshot-restored sets, which never persist a Budget.
func (s *Set) AttachBudget(b *Budget) error {
	if b != nil {
		if err := b.validate(); err != nil {
			return err
		}
	}
	s.planMu.Lock()
	defer s.planMu.Unlock()
	s.budget = b
	return nil
}
