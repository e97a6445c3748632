package packet

import (
	"errors"
	"testing"
	"testing/quick"
)

// FuzzDecode drives arbitrary bytes through DecodeInto: any input
// may be rejected, none may panic or return a malformed success.
func FuzzDecode(f *testing.F) {
	// Seed with valid TCP and UDP frames plus interesting corruptions.
	tcp, err := Encode(samplePacket(TCP))
	if err != nil {
		f.Fatal(err)
	}
	udp, err := Encode(samplePacket(UDP))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(tcp)
	f.Add(udp)
	f.Add(tcp[:20])
	f.Add([]byte{})
	short := append([]byte(nil), tcp...)
	short[EthernetHeaderLen] = 0x46 // IHL 6 words but no options present
	f.Add(short)

	f.Fuzz(func(t *testing.T, data []byte) {
		var pkt Packet
		if err := DecodeInto(&pkt, data); err != nil {
			return
		}
		// Successful decodes must be internally consistent.
		if pkt.Length > len(data) {
			t.Fatalf("decoded length %d exceeds input %d", pkt.Length, len(data))
		}
		if pkt.Tuple.Proto != TCP && pkt.Tuple.Proto != UDP {
			t.Fatalf("accepted protocol %d", pkt.Tuple.Proto)
		}
	})
}

// FuzzDecodeIntoMatchesReference is the differential contract between
// DecodeInto and the reference decoder on arbitrary bytes: they must agree
// on success (the same packet) or fail with the same sentinel class. The
// single permitted divergence is the transport checksum, which DecodeInto
// deliberately skips (it never reads payload bytes): it may succeed where
// the reference fails, but then only with ErrBadChecksum.
func FuzzDecodeIntoMatchesReference(f *testing.F) {
	tcp, err := Encode(samplePacket(TCP))
	if err != nil {
		f.Fatal(err)
	}
	udp, err := Encode(samplePacket(UDP))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(tcp)
	f.Add(udp)
	f.Add(tcp[:EthernetHeaderLen+IPv4HeaderLen])
	f.Add([]byte{})
	frag := append([]byte(nil), tcp...)
	frag[EthernetHeaderLen+6] = 0x20 // MF set
	f.Add(frag)
	corrupt := append([]byte(nil), tcp...)
	corrupt[len(corrupt)-1] ^= 0xff // payload bit flip: transport checksum
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		sentinel := Packet{Tuple: Tuple{Src: 0xdead, SrcPort: 7}, Length: 42}
		into := sentinel
		ierr := DecodeInto(&into, data)
		fr, rerr := referenceDecode(data)
		switch {
		case ierr == nil && rerr == nil:
			if want := fr.toPacket(); into != want {
				t.Fatalf("DecodeInto %+v, reference %+v", into, want)
			}
		case ierr == nil && rerr != nil:
			if !errors.Is(rerr, ErrBadChecksum) {
				t.Fatalf("DecodeInto accepted a frame the reference rejects with %v (only transport-checksum divergence is allowed)", rerr)
			}
		case ierr != nil && rerr == nil:
			t.Fatalf("DecodeInto rejected (%v) a frame the reference accepts", ierr)
		default:
			if !sameErrorClass(ierr, rerr) {
				t.Fatalf("error class mismatch: DecodeInto %v, reference %v", ierr, rerr)
			}
		}
		if ierr != nil && into != sentinel {
			t.Fatalf("DecodeInto modified the packet on error: %+v", into)
		}
	})
}

// TestDecodeRandomMutationsNeverPanic complements the fuzz seed corpus in
// plain `go test` runs: random bit flips over valid frames.
func TestDecodeRandomMutationsNeverPanic(t *testing.T) {
	valid, err := Encode(samplePacket(TCP))
	if err != nil {
		t.Fatal(err)
	}
	fn := func(pos uint16, mask byte, truncate uint16) bool {
		data := append([]byte(nil), valid...)
		data[int(pos)%len(data)] ^= mask
		data = data[:int(truncate)%(len(data)+1)]
		var pkt Packet
		_ = DecodeInto(&pkt, data) // must not panic; error is fine
		_, _ = referenceDecode(data)
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
