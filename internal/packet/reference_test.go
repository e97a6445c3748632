package packet

import (
	"encoding/binary"
	"fmt"
)

// The reference decoder: the full parse DecodeInto is pinned against. It
// was the production decoder until every caller moved to the header-only
// path; what it still does that DecodeInto does not is walk the payload —
// MACs, seq/ack, a payload subslice, and the transport checksum over every
// byte — which is what makes it the check that Encode's frames are valid on
// the wire, and an independently written statement of the structural
// checks, in the order and with the sentinels DecodeInto must reproduce
// (TestDecodeIntoMatchesReference, FuzzDecodeIntoMatchesReference).

// referenceFrame is everything the reference decoder reads off a frame.
type referenceFrame struct {
	SrcMAC   MAC
	DstMAC   MAC
	Tuple    Tuple
	Flags    Flags // TCP only
	TTL      uint8
	Seq, Ack uint32 // TCP only
	Payload  []byte
	Length   int // total frame length in bytes
}

// referenceDecode parses an Ethernet/IPv4/TCP-or-UDP frame produced by
// Encode (or by any standards-conforming source). Checksums are verified,
// the transport's included.
func referenceDecode(frame []byte) (referenceFrame, error) {
	var out referenceFrame
	if len(frame) < EthernetHeaderLen+IPv4HeaderLen {
		return out, fmt.Errorf("%w: %d bytes", ErrTruncated, len(frame))
	}
	copy(out.DstMAC[:], frame[0:6])
	copy(out.SrcMAC[:], frame[6:12])
	if et := binary.BigEndian.Uint16(frame[12:14]); et != EtherTypeIPv4 {
		return out, fmt.Errorf("%w: ethertype %#04x", ErrNotIPv4, et)
	}

	ip := frame[EthernetHeaderLen:]
	if ip[0]>>4 != 4 {
		return out, fmt.Errorf("%w: %d", ErrBadIPVersion, ip[0]>>4)
	}
	ihl := int(ip[0]&0x0f) * 4
	if ihl < IPv4HeaderLen || len(ip) < ihl {
		return out, fmt.Errorf("%w: ihl=%d", ErrBadIHL, ihl)
	}
	if checksum(ip[:ihl], 0) != 0 {
		return out, fmt.Errorf("%w: ipv4 header", ErrBadChecksum)
	}
	ipTotal := int(binary.BigEndian.Uint16(ip[2:4]))
	if ipTotal < ihl || len(ip) < ipTotal {
		return out, fmt.Errorf("%w: ip total length %d", ErrTruncated, ipTotal)
	}
	// Reject fragments before touching the transport layer: a non-first
	// fragment (offset != 0) has payload bytes where the ports would be,
	// and a first fragment (MF set) is an incomplete datagram.
	if frag := binary.BigEndian.Uint16(ip[6:8]); frag&fragMask != 0 {
		return out, fmt.Errorf("%w: flags+offset %#04x", ErrFragmented, frag)
	}
	out.TTL = ip[8]
	proto := Proto(ip[9])
	out.Tuple.Src = Addr(binary.BigEndian.Uint32(ip[12:16]))
	out.Tuple.Dst = Addr(binary.BigEndian.Uint32(ip[16:20]))
	out.Tuple.Proto = proto

	tr := ip[ihl:ipTotal]
	switch proto {
	case TCP:
		if len(tr) < TCPHeaderLen {
			return out, fmt.Errorf("%w: tcp header", ErrTruncated)
		}
		out.Tuple.SrcPort = binary.BigEndian.Uint16(tr[0:2])
		out.Tuple.DstPort = binary.BigEndian.Uint16(tr[2:4])
		out.Seq = binary.BigEndian.Uint32(tr[4:8])
		out.Ack = binary.BigEndian.Uint32(tr[8:12])
		dataOff := int(tr[12]>>4) * 4
		if dataOff < TCPHeaderLen || len(tr) < dataOff {
			return out, fmt.Errorf("%w: tcp data offset %d", ErrTruncated, dataOff)
		}
		out.Flags = Flags(tr[13])
		if checksum(tr, pseudoHeaderSum(out.Tuple, len(tr))) != 0 {
			return out, fmt.Errorf("%w: tcp segment", ErrBadChecksum)
		}
		out.Payload = tr[dataOff:]
	case UDP:
		if len(tr) < UDPHeaderLen {
			return out, fmt.Errorf("%w: udp header", ErrTruncated)
		}
		out.Tuple.SrcPort = binary.BigEndian.Uint16(tr[0:2])
		out.Tuple.DstPort = binary.BigEndian.Uint16(tr[2:4])
		udpLen := int(binary.BigEndian.Uint16(tr[4:6]))
		if udpLen < UDPHeaderLen || udpLen > len(tr) {
			return out, fmt.Errorf("%w: udp length %d", ErrTruncated, udpLen)
		}
		// A zero UDP checksum means "not computed" and is legal.
		if binary.BigEndian.Uint16(tr[6:8]) != 0 {
			if checksum(tr[:udpLen], pseudoHeaderSum(out.Tuple, udpLen)) != 0 {
				return out, fmt.Errorf("%w: udp datagram", ErrBadChecksum)
			}
		}
		out.Payload = tr[UDPHeaderLen:udpLen]
	default:
		return out, fmt.Errorf("%w: %d", ErrProto, proto)
	}
	out.Length = EthernetHeaderLen + ipTotal
	return out, nil
}

// toPacket converts a decoded frame back to the simulator's Packet form.
// Direction is recovered from the synthetic MAC addresses; frames from
// other sources default to Incoming.
func (f referenceFrame) toPacket() Packet {
	dir := Incoming
	if f.SrcMAC == clientMAC {
		dir = Outgoing
	}
	return Packet{
		Tuple:  f.Tuple,
		Dir:    dir,
		Flags:  f.Flags,
		Length: f.Length,
	}
}
