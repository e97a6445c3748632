package packet

import (
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"
)

func samplePacket(proto Proto) Packet {
	return Packet{
		Tuple: Tuple{
			Src:     AddrFrom4(10, 0, 0, 5),
			Dst:     AddrFrom4(198, 51, 100, 7),
			SrcPort: 40000,
			DstPort: 80,
			Proto:   proto,
		},
		Dir:    Outgoing,
		Flags:  SYN,
		Length: 120,
	}
}

// decodeErr runs frame through DecodeInto and returns its error, after
// requiring the reference decoder to fail (or not) in the same class: the
// structural tests below hold for both.
func decodeErr(t *testing.T, frame []byte) error {
	t.Helper()
	var pkt Packet
	err := DecodeInto(&pkt, frame)
	if _, rerr := referenceDecode(frame); !sameErrorClass(err, rerr) {
		t.Errorf("DecodeInto: %v, reference: %v", err, rerr)
	}
	return err
}

func TestEncodeDecodeTCP(t *testing.T) {
	pkt := samplePacket(TCP)
	frame, err := Encode(pkt)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if len(frame) != pkt.Length {
		t.Errorf("frame length %d, want %d", len(frame), pkt.Length)
	}
	dec, err := referenceDecode(frame)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if dec.Tuple != pkt.Tuple {
		t.Errorf("tuple %+v, want %+v", dec.Tuple, pkt.Tuple)
	}
	if dec.Flags != pkt.Flags {
		t.Errorf("flags %v, want %v", dec.Flags, pkt.Flags)
	}
	if dec.Length != pkt.Length {
		t.Errorf("decoded length %d, want %d", dec.Length, pkt.Length)
	}
	back := dec.toPacket()
	if back.Dir != Outgoing {
		t.Errorf("direction %v, want out", back.Dir)
	}
	if back.Tuple != pkt.Tuple {
		t.Errorf("round-trip tuple %+v", back.Tuple)
	}
	var got Packet
	if err := DecodeInto(&got, frame); err != nil || got != pkt {
		t.Errorf("DecodeInto = %+v, %v; want %+v", got, err, pkt)
	}
}

func TestEncodeDecodeUDP(t *testing.T) {
	pkt := samplePacket(UDP)
	pkt.Flags = 0
	pkt.Dir = Incoming
	frame, err := Encode(pkt)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	dec, err := referenceDecode(frame)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if dec.Tuple != pkt.Tuple {
		t.Errorf("tuple %+v", dec.Tuple)
	}
	if got := dec.toPacket().Dir; got != Incoming {
		t.Errorf("direction %v, want in", got)
	}
	var got Packet
	if err := DecodeInto(&got, frame); err != nil || got != pkt {
		t.Errorf("DecodeInto = %+v, %v; want %+v", got, err, pkt)
	}
}

func TestEncodeMinimumLength(t *testing.T) {
	pkt := samplePacket(TCP)
	pkt.Length = 1 // below header size: must be padded up
	frame, err := Encode(pkt)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if len(frame) != EthernetHeaderLen+IPv4HeaderLen+TCPHeaderLen {
		t.Errorf("minimum frame length = %d", len(frame))
	}
	if err := decodeErr(t, frame); err != nil {
		t.Errorf("decode minimal frame: %v", err)
	}
}

func TestEncodeUnsupportedProto(t *testing.T) {
	pkt := samplePacket(Proto(47))
	if _, err := Encode(pkt); !errors.Is(err, ErrProto) {
		t.Errorf("error = %v, want ErrProto", err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	frame, err := Encode(samplePacket(TCP))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 10, EthernetHeaderLen + 5, EthernetHeaderLen + IPv4HeaderLen + 3} {
		if err := decodeErr(t, frame[:n]); err == nil {
			t.Errorf("decode of %d-byte prefix succeeded", n)
		}
	}
}

func TestDecodeBadEtherType(t *testing.T) {
	frame, _ := Encode(samplePacket(TCP))
	binary.BigEndian.PutUint16(frame[12:14], 0x86dd) // IPv6
	if err := decodeErr(t, frame); !errors.Is(err, ErrNotIPv4) {
		t.Errorf("error = %v, want ErrNotIPv4", err)
	}
}

func TestDecodeBadIPVersion(t *testing.T) {
	frame, _ := Encode(samplePacket(TCP))
	frame[EthernetHeaderLen] = 0x65 // version 6
	if err := decodeErr(t, frame); !errors.Is(err, ErrBadIPVersion) {
		t.Errorf("error = %v, want ErrBadIPVersion", err)
	}
}

func TestDecodeCorruptedIPChecksum(t *testing.T) {
	frame, _ := Encode(samplePacket(TCP))
	frame[EthernetHeaderLen+12] ^= 0xff // flip a source-address byte
	if err := decodeErr(t, frame); !errors.Is(err, ErrBadChecksum) {
		t.Errorf("error = %v, want ErrBadChecksum", err)
	}
}

// The transport checksum is the reference decoder's alone (DecodeInto never
// reads a payload byte): these three are what vouches for Encode's.
func TestDecodeCorruptedTCPChecksum(t *testing.T) {
	frame, _ := Encode(samplePacket(TCP))
	// Flip a payload byte: the IP header checksum stays valid, the TCP
	// checksum must catch it.
	frame[len(frame)-1] ^= 0xff
	if _, err := referenceDecode(frame); !errors.Is(err, ErrBadChecksum) {
		t.Errorf("error = %v, want ErrBadChecksum", err)
	}
}

func TestDecodeCorruptedUDPChecksum(t *testing.T) {
	pkt := samplePacket(UDP)
	frame, _ := Encode(pkt)
	frame[len(frame)-1] ^= 0xff
	if _, err := referenceDecode(frame); !errors.Is(err, ErrBadChecksum) {
		t.Errorf("error = %v, want ErrBadChecksum", err)
	}
}

func TestDecodeZeroUDPChecksumAccepted(t *testing.T) {
	pkt := samplePacket(UDP)
	frame, _ := Encode(pkt)
	// Zero out the UDP checksum: RFC 768 "no checksum".
	off := EthernetHeaderLen + IPv4HeaderLen + 6
	frame[off], frame[off+1] = 0, 0
	if _, err := referenceDecode(frame); err != nil {
		t.Errorf("zero UDP checksum rejected: %v", err)
	}
}

func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	f := func(src, dst uint32, sp, dp uint16, udp bool, flags uint8, extra uint16) bool {
		proto := TCP
		if udp {
			proto = UDP
		}
		pkt := Packet{
			Tuple: Tuple{
				Src: Addr(src), Dst: Addr(dst),
				SrcPort: sp, DstPort: dp, Proto: proto,
			},
			Dir:    Outgoing,
			Length: EthernetHeaderLen + IPv4HeaderLen + TCPHeaderLen + int(extra%1400),
		}
		if proto == TCP {
			pkt.Flags = Flags(flags) & (FIN | SYN | RST | PSH | ACK | URG)
		}
		frame, err := Encode(pkt)
		if err != nil {
			return false
		}
		dec, err := referenceDecode(frame)
		if err != nil {
			return false
		}
		return dec.Tuple == pkt.Tuple && dec.Flags == pkt.Flags && dec.Length == len(frame)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example: the checksum of {0x00,0x01,0xf2,0x03,0xf4,0xf5,
	// 0xf6,0xf7} has partial sum 0x2ddf0 -> folded 0xddf2 -> complement
	// 0x220d.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := checksum(data, 0); got != 0x220d {
		t.Errorf("checksum = %#04x, want 0x220d", got)
	}
}

func TestChecksumOddLength(t *testing.T) {
	// Odd-length data pads with a zero byte: {0x01} -> sum 0x0100 ->
	// complement 0xfeff.
	if got := checksum([]byte{0x01}, 0); got != 0xfeff {
		t.Errorf("checksum = %#04x, want 0xfeff", got)
	}
}

func BenchmarkEncodeTCP(b *testing.B) {
	pkt := samplePacket(TCP)
	pkt.Length = 720 // paper's average packet size
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(pkt); err != nil {
			b.Fatal(err)
		}
	}
}
