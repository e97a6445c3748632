package packet

import "encoding/binary"

// The decoder: wire bytes to a verdict-ready packet without touching the
// payload. There is one in production code, DecodeInto.
//
// It reads only header bytes: Ethernet (direction from the synthetic MACs),
// the IPv4 header (version/IHL/length/fragment checks plus the 20-byte
// header checksum), and the first transport words (ports, TCP flags,
// structural length checks). Everything stays in registers; the payload is
// never loaded, so the transport checksum — a walk over every payload byte,
// the wrong contract for an inline edge device judging 500K+ pps — is not
// verified.
//
// It is pinned against a reference that does verify it (reference_test.go,
// the full decoder this one replaced): the structural checks run in exactly
// the reference's order, return the same sentinel errors, and the only
// permitted divergence is the transport checksum — a frame whose payload
// (or transport header) is corrupt decodes here and fails the reference
// with ErrBadChecksum. TestDecodeIntoMatchesReference and
// FuzzDecodeIntoMatchesReference enforce the contract.

// DecodeInto is the wire-to-batch entry point of the live packet plane:
// it fills pkt's Tuple, Dir, Flags and Length straight off the header
// bytes, leaving pkt.Time for the caller to stamp (capture timestamp or
// wall clock). Direction is recovered from the synthetic MAC addresses;
// frames from other sources are Incoming until a caller classifies them
// (PrefixTable.ClassifySlot). On error pkt is unmodified: everything is
// parsed into locals first. Error returns are bare sentinels (never
// wrapped), so the path performs zero allocations.
//
//bf:hotpath
func DecodeInto(pkt *Packet, frame []byte) error {
	if len(frame) < EthernetHeaderLen+IPv4HeaderLen {
		return ErrTruncated
	}
	dir := Incoming
	if MAC(frame[6:12]) == clientMAC {
		dir = Outgoing
	}
	if binary.BigEndian.Uint16(frame[12:14]) != EtherTypeIPv4 {
		return ErrNotIPv4
	}

	ip := frame[EthernetHeaderLen:]
	if ip[0]>>4 != 4 {
		return ErrBadIPVersion
	}
	ihl := int(ip[0]&0x0f) * 4
	if ihl < IPv4HeaderLen || len(ip) < ihl {
		return ErrBadIHL
	}
	if headerChecksum(ip[:ihl]) != 0 {
		return ErrBadChecksum
	}
	ipTotal := int(binary.BigEndian.Uint16(ip[2:4]))
	if ipTotal < ihl || len(ip) < ipTotal {
		return ErrTruncated
	}
	if binary.BigEndian.Uint16(ip[6:8])&fragMask != 0 {
		return ErrFragmented
	}
	tup := Tuple{
		Src:   Addr(binary.BigEndian.Uint32(ip[12:16])),
		Dst:   Addr(binary.BigEndian.Uint32(ip[16:20])),
		Proto: Proto(ip[9]),
	}

	var flags Flags
	tr := ip[ihl:ipTotal]
	switch tup.Proto {
	case TCP:
		if len(tr) < TCPHeaderLen {
			return ErrTruncated
		}
		if dataOff := int(tr[12]>>4) * 4; dataOff < TCPHeaderLen || len(tr) < dataOff {
			return ErrTruncated
		}
		flags = Flags(tr[13])
	case UDP:
		if len(tr) < UDPHeaderLen {
			return ErrTruncated
		}
		if udpLen := int(binary.BigEndian.Uint16(tr[4:6])); udpLen < UDPHeaderLen || udpLen > len(tr) {
			return ErrTruncated
		}
	default:
		return ErrProto
	}
	tup.SrcPort = binary.BigEndian.Uint16(tr[0:2])
	tup.DstPort = binary.BigEndian.Uint16(tr[2:4])

	pkt.Tuple = tup
	pkt.Dir = dir
	pkt.Flags = flags
	pkt.Length = EthernetHeaderLen + ipTotal
	return nil
}

// headerChecksum is checksum(hdr, 0) for an IPv4 header: hdr is ihl bytes,
// a multiple of 4 from IPv4HeaderLen up. It sums big-endian 32-bit words
// into 64 bits — five of them straight-line, then any options — and folds
// the sum to 16 bits. Since 2^16 ≡ 1 modulo 2^16−1, the folded word sum is
// congruent to the byte-pair sum, and both lie in [1, 0xffff] for any
// non-zero header (0 for an all-zero one): the two are equal, which
// FuzzHeaderSum pins.
//
//bf:hotpath
func headerChecksum(hdr []byte) uint16 {
	be := binary.BigEndian
	_ = hdr[IPv4HeaderLen-1]
	sum := uint64(be.Uint32(hdr[0:])) + uint64(be.Uint32(hdr[4:])) + uint64(be.Uint32(hdr[8:])) +
		uint64(be.Uint32(hdr[12:])) + uint64(be.Uint32(hdr[16:]))
	for i := IPv4HeaderLen; i+4 <= len(hdr); i += 4 {
		sum += uint64(be.Uint32(hdr[i:]))
	}
	// At most 15 words: sum < 2^36. Each fold keeps the sum's residue
	// modulo 2^16−1; three bring it under 2^16.
	sum = sum&0xffffffff + sum>>32 // < 2^32 + 16
	sum = sum&0xffff + sum>>16     // ≤ 0x1fffe
	sum = sum&0xffff + sum>>16     // ≤ 0xffff
	return ^uint16(sum)
}
