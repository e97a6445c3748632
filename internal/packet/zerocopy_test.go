package packet

import (
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"
)

// refixIPChecksum recomputes the IPv4 header checksum of an encoded frame
// after a test mutated header bytes, so the mutation under test — not a
// checksum mismatch — is what the decoder sees.
func refixIPChecksum(frame []byte) {
	ip := frame[EthernetHeaderLen:]
	ip[10], ip[11] = 0, 0
	binary.BigEndian.PutUint16(ip[10:12], checksum(ip[:IPv4HeaderLen], 0))
}

// decodeSentinels are the error classes a decoder may return; the
// differential tests assert DecodeInto and the reference pick the same one.
var decodeSentinels = []error{
	ErrTruncated, ErrNotIPv4, ErrBadIPVersion, ErrBadIHL,
	ErrBadChecksum, ErrFragmented, ErrProto,
}

func sameErrorClass(a, b error) bool {
	for _, s := range decodeSentinels {
		if errors.Is(a, s) != errors.Is(b, s) {
			return false
		}
	}
	return true
}

// TestDecodeRejectsFragments: a non-first fragment carries no transport
// header, so the decoder (and the reference) must refuse it rather than
// misparse payload bytes as ports. This is the regression test for the
// fragment-handling bug: the old decoder ignored ip[6:8] entirely.
func TestDecodeRejectsFragments(t *testing.T) {
	cases := []struct {
		name string
		frag uint16 // flags+offset word
		want error
	}{
		{"offset-nonzero", 0x0001, ErrFragmented}, // second fragment
		{"offset-large", 0x1fff, ErrFragmented},
		{"more-fragments", 0x2000, ErrFragmented}, // first fragment, MF set
		{"mf-and-offset", 0x2005, ErrFragmented},
		{"dont-fragment", 0x4000, nil}, // DF is not a fragment
		{"reserved-bit", 0x8000, nil},  // ignored, as before
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			frame, err := Encode(samplePacket(TCP))
			if err != nil {
				t.Fatal(err)
			}
			binary.BigEndian.PutUint16(frame[EthernetHeaderLen+6:], tc.frag)
			refixIPChecksum(frame)
			if err := decodeErr(t, frame); !errors.Is(err, tc.want) {
				t.Errorf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestEncodeTooLong pins the boundary of the 16-bit IPv4 total length:
// the largest representable frame is 65535 bytes of IP datagram behind a
// 14-byte Ethernet header. The old Encode silently wrapped the length
// through uint16() above that.
func TestEncodeTooLong(t *testing.T) {
	maxLen := EthernetHeaderLen + 0xffff

	pkt := samplePacket(TCP)
	pkt.Length = maxLen
	frame, err := Encode(pkt)
	if err != nil {
		t.Fatalf("Encode at the boundary (%d bytes): %v", maxLen, err)
	}
	dec, err := referenceDecode(frame)
	if err != nil {
		t.Fatalf("reference decode of maximum frame: %v", err)
	}
	if dec.Length != maxLen {
		t.Errorf("round-tripped length %d, want %d", dec.Length, maxLen)
	}

	pkt.Length = maxLen + 1
	if _, err := Encode(pkt); !errors.Is(err, ErrTooLong) {
		t.Errorf("Encode(%d bytes) err = %v, want ErrTooLong", pkt.Length, err)
	}
	// Far past the wrap point, where uint16 truncation used to produce a
	// plausible-looking small length.
	pkt.Length = EthernetHeaderLen + 0x10000 + 200
	if _, err := Encode(pkt); !errors.Is(err, ErrTooLong) {
		t.Errorf("Encode(wrapped length) err = %v, want ErrTooLong", err)
	}
}

// TestDecodeIntoMatchesReference drives DecodeInto and the reference decoder
// over valid frames of every shape Encode produces and requires identical
// tuples, directions, flags and lengths.
func TestDecodeIntoMatchesReference(t *testing.T) {
	f := func(src, dst uint32, sp, dp uint16, udp, incoming bool, flags uint8, extra uint16) bool {
		proto := TCP
		if udp {
			proto = UDP
		}
		dir := Outgoing
		if incoming {
			dir = Incoming
		}
		pkt := Packet{
			Tuple: Tuple{
				Src: Addr(src), Dst: Addr(dst),
				SrcPort: sp, DstPort: dp, Proto: proto,
			},
			Dir:    dir,
			Length: EthernetHeaderLen + IPv4HeaderLen + TCPHeaderLen + int(extra%1400),
		}
		if proto == TCP {
			pkt.Flags = Flags(flags) & (FIN | SYN | RST | PSH | ACK | URG)
		}
		frame, err := Encode(pkt)
		if err != nil {
			return false
		}
		fr, err := referenceDecode(frame)
		if err != nil {
			return false
		}
		want := fr.toPacket()

		var into Packet
		return DecodeInto(&into, frame) == nil && into == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestDecodeIntoLeavesPacketOnError: the documented contract is that a
// failed DecodeInto does not modify the packet, so a pump can reuse one
// scratch Packet across frames without scrubbing it between errors.
func TestDecodeIntoLeavesPacketOnError(t *testing.T) {
	frame, err := Encode(samplePacket(TCP))
	if err != nil {
		t.Fatal(err)
	}
	sentinel := Packet{Tuple: Tuple{Src: 0xdead, SrcPort: 7}, Length: 42}
	pkt := sentinel
	if err := DecodeInto(&pkt, frame[:10]); err == nil {
		t.Fatal("truncated frame decoded")
	}
	if pkt != sentinel {
		t.Errorf("packet modified on error: %+v", pkt)
	}
}

// TestDecodeIntoSkipsPayloadChecksum pins the one documented divergence:
// a corrupt payload byte fails the reference (transport checksum) but not
// the header-only decoder.
func TestDecodeIntoSkipsPayloadChecksum(t *testing.T) {
	pkt := samplePacket(TCP)
	pkt.Length = 200
	frame, err := Encode(pkt)
	if err != nil {
		t.Fatal(err)
	}
	frame[len(frame)-1] ^= 0xff
	if _, err := referenceDecode(frame); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("reference decode of corrupt payload: %v, want ErrBadChecksum", err)
	}
	var got Packet
	if err := DecodeInto(&got, frame); err != nil {
		t.Fatalf("DecodeInto rejected a frame with valid headers: %v", err)
	}
	if got != pkt {
		t.Errorf("DecodeInto = %+v, want %+v", got, pkt)
	}
}

// TestDecodeIntoZeroAllocs is the hot-loop contract: no allocation per
// frame on either success or failure.
func TestDecodeIntoZeroAllocs(t *testing.T) {
	good, err := Encode(samplePacket(TCP))
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	bad[EthernetHeaderLen+9] = 47 // unsupported protocol
	refixIPChecksum(bad)

	var pkt Packet
	if n := testing.AllocsPerRun(200, func() {
		if err := DecodeInto(&pkt, good); err != nil {
			t.Fatal(err)
		}
		if err := DecodeInto(&pkt, bad); err == nil {
			t.Fatal("bad frame accepted")
		}
	}); n != 0 {
		t.Errorf("DecodeInto allocates %.1f times per frame", n)
	}
}

func BenchmarkDecodeInto(b *testing.B) {
	pkt := samplePacket(TCP)
	pkt.Length = 720
	frame, err := Encode(pkt)
	if err != nil {
		b.Fatal(err)
	}
	var out Packet
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeInto(&out, frame); err != nil {
			b.Fatal(err)
		}
	}
}
