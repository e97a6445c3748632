package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Wire-format encoding and decoding of Ethernet II / IPv4 / TCP / UDP
// frames. This is the from-scratch replacement for the gopacket dependency
// the reproduction hint suggests: enough of the real formats that generated
// traces are valid pcap payloads, checksums included.

// Header sizes in bytes.
const (
	EthernetHeaderLen = 14
	IPv4HeaderLen     = 20 // without options
	TCPHeaderLen      = 20 // without options
	UDPHeaderLen      = 8
)

// EtherTypeIPv4 is the Ethernet II type code for IPv4 payloads.
const EtherTypeIPv4 = 0x0800

// Decoding errors, matchable with errors.Is.
var (
	ErrTruncated    = errors.New("packet: truncated frame")
	ErrNotIPv4      = errors.New("packet: not an IPv4 frame")
	ErrBadIPVersion = errors.New("packet: bad IP version")
	ErrBadIHL       = errors.New("packet: bad IPv4 header length")
	ErrBadChecksum  = errors.New("packet: bad checksum")
	ErrProto        = errors.New("packet: unsupported transport protocol")
	// ErrFragmented rejects IPv4 fragments. A non-first fragment carries
	// no transport header — its first payload bytes would be misparsed as
	// ports — and a first fragment (MF set) may be followed by an
	// overlapping rewrite, so the filter refuses to judge either rather
	// than hash garbage into the bitmap.
	ErrFragmented = errors.New("packet: fragmented IPv4 datagram")
	// ErrTooLong is returned by Encode when the packet cannot be
	// represented: the IPv4 total-length field is 16 bits, so anything
	// over 65535 bytes of IP datagram would silently wrap.
	ErrTooLong = errors.New("packet: frame exceeds IPv4 maximum length")
)

// fragMask selects the IPv4 MF flag and the 13-bit fragment offset in the
// flags+offset word (ip[6:8]). DF and the reserved bit are irrelevant to
// reassembly and pass through.
const fragMask = 0x3fff

// MAC is a 6-byte Ethernet address.
type MAC [6]byte

// Synthetic MAC addresses used when framing simulated packets. The
// locally-administered bit is set so they can never collide with real NICs.
var (
	clientMAC = MAC{0x02, 0xbf, 0x00, 0x00, 0x00, 0x01}
	ispMAC    = MAC{0x02, 0xbf, 0x00, 0x00, 0x00, 0x02}
)

// Encode serializes pkt into an Ethernet/IPv4/TCP-or-UDP frame with valid
// length fields and checksums. The payload is zero-filled to pad the frame
// to pkt.Length bytes (the simulator tracks lengths, not contents). The MAC
// addresses encode the direction: outgoing frames go client→ISP.
func Encode(pkt Packet) ([]byte, error) {
	transportLen := TCPHeaderLen
	if pkt.Tuple.Proto == UDP {
		transportLen = UDPHeaderLen
	} else if pkt.Tuple.Proto != TCP {
		return nil, fmt.Errorf("%w: %d", ErrProto, pkt.Tuple.Proto)
	}

	minLen := EthernetHeaderLen + IPv4HeaderLen + transportLen
	total := pkt.Length
	if total < minLen {
		total = minLen
	}
	payloadLen := total - minLen
	// The IPv4 total-length field is 16 bits. A larger packet used to
	// encode with a wrapped length (and a checksum over garbage); refuse
	// it instead.
	if total-EthernetHeaderLen > 0xffff {
		return nil, fmt.Errorf("%w: ip total length %d", ErrTooLong, total-EthernetHeaderLen)
	}

	buf := make([]byte, total)

	// Ethernet II.
	src, dst := clientMAC, ispMAC
	if pkt.Dir == Incoming {
		src, dst = ispMAC, clientMAC
	}
	copy(buf[0:6], dst[:])
	copy(buf[6:12], src[:])
	binary.BigEndian.PutUint16(buf[12:14], EtherTypeIPv4)

	// IPv4.
	ip := buf[EthernetHeaderLen:]
	ipTotal := IPv4HeaderLen + transportLen + payloadLen
	ip[0] = 0x45 // version 4, IHL 5
	binary.BigEndian.PutUint16(ip[2:4], uint16(ipTotal))
	ip[8] = 64 // TTL
	ip[9] = byte(pkt.Tuple.Proto)
	binary.BigEndian.PutUint32(ip[12:16], uint32(pkt.Tuple.Src))
	binary.BigEndian.PutUint32(ip[16:20], uint32(pkt.Tuple.Dst))
	binary.BigEndian.PutUint16(ip[10:12], checksum(ip[:IPv4HeaderLen], 0))

	// Transport.
	tr := ip[IPv4HeaderLen:]
	binary.BigEndian.PutUint16(tr[0:2], pkt.Tuple.SrcPort)
	binary.BigEndian.PutUint16(tr[2:4], pkt.Tuple.DstPort)
	switch pkt.Tuple.Proto {
	case TCP:
		tr[12] = 5 << 4 // data offset 5 words
		tr[13] = byte(pkt.Flags)
		binary.BigEndian.PutUint16(tr[14:16], 0xffff) // window
		seg := tr[:TCPHeaderLen+payloadLen]
		binary.BigEndian.PutUint16(tr[16:18],
			checksum(seg, pseudoHeaderSum(pkt.Tuple, len(seg))))
	case UDP:
		binary.BigEndian.PutUint16(tr[4:6], uint16(UDPHeaderLen+payloadLen))
		seg := tr[:UDPHeaderLen+payloadLen]
		sum := checksum(seg, pseudoHeaderSum(pkt.Tuple, len(seg)))
		if sum == 0 {
			// RFC 768: a computed checksum of zero is transmitted as
			// all ones (zero means "no checksum").
			sum = 0xffff
		}
		binary.BigEndian.PutUint16(tr[6:8], sum)
	}
	return buf, nil
}

// pseudoHeaderSum computes the partial ones-complement sum of the IPv4
// pseudo-header used by TCP and UDP checksums.
func pseudoHeaderSum(t Tuple, transportLen int) uint32 {
	var sum uint32
	src, dst := uint32(t.Src), uint32(t.Dst)
	sum += src >> 16
	sum += src & 0xffff
	sum += dst >> 16
	sum += dst & 0xffff
	sum += uint32(t.Proto)
	sum += uint32(transportLen)
	return sum
}

// checksum computes the RFC 1071 ones-complement checksum of data with an
// initial partial sum.
func checksum(data []byte, initial uint32) uint16 {
	sum := initial
	n := len(data)
	for i := 0; i+1 < n; i += 2 {
		sum += uint32(data[i])<<8 | uint32(data[i+1])
	}
	if n%2 == 1 {
		sum += uint32(data[n-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}
