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
	if checksum(ip[:ihl], 0) != 0 {
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
