package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"time"

	"bitmapfilter/internal/packet"
)

// readRecord is Scanner.Next returning the record.
func readRecord(sc *Scanner) (Record, error) {
	var rec Record
	err := sc.Next(&rec)
	return rec, err
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}

	pkts := []packet.Packet{
		{
			Time: 1500 * time.Millisecond,
			Tuple: packet.Tuple{
				Src: packet.AddrFrom4(10, 0, 0, 1), Dst: packet.AddrFrom4(198, 51, 100, 1),
				SrcPort: 4000, DstPort: 80, Proto: packet.TCP,
			},
			Dir: packet.Outgoing, Flags: packet.SYN, Length: 60,
		},
		{
			Time: 2 * time.Second,
			Tuple: packet.Tuple{
				Src: packet.AddrFrom4(198, 51, 100, 1), Dst: packet.AddrFrom4(10, 0, 0, 1),
				SrcPort: 80, DstPort: 4000, Proto: packet.TCP,
			},
			Dir: packet.Incoming, Flags: packet.SYN | packet.ACK, Length: 60,
		},
		{
			Time: 3 * time.Second,
			Tuple: packet.Tuple{
				Src: packet.AddrFrom4(10, 0, 0, 2), Dst: packet.AddrFrom4(203, 0, 113, 3),
				SrcPort: 5353, DstPort: 53, Proto: packet.UDP,
			},
			Dir: packet.Outgoing, Length: 90,
		},
	}
	for _, p := range pkts {
		frame, err := packet.Encode(p)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		if err := w.WriteRecord(Record{Time: p.Time, Data: frame}); err != nil {
			t.Fatalf("WriteRecord: %v", err)
		}
	}

	r, err := NewScanner(buf.Bytes())
	if err != nil {
		t.Fatalf("NewScanner: %v", err)
	}
	if got := binary.LittleEndian.Uint32(buf.Bytes()[20:24]); got != LinkTypeEthernet {
		t.Errorf("link type = %d", got)
	}
	if r.snapLen != DefaultSnapLen {
		t.Errorf("snapLen = %d", r.snapLen)
	}
	for i, want := range pkts {
		rec, err := readRecord(r)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rec.Time != want.Time {
			t.Errorf("record %d time = %v, want %v", i, rec.Time, want.Time)
		}
		got := packet.Packet{Time: rec.Time}
		if err := packet.DecodeInto(&got, rec.Data); err != nil {
			t.Fatalf("DecodeInto[%d]: %v", i, err)
		}
		if got != want {
			t.Errorf("record %d = %+v, want %+v", i, got, want)
		}
	}
	if _, err := readRecord(r); !errors.Is(err, io.EOF) {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestEmptyFile(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := NewScanner(buf.Bytes())
	if err != nil {
		t.Fatalf("NewScanner: %v", err)
	}
	if _, err := readRecord(r); !errors.Is(err, io.EOF) {
		t.Errorf("want EOF, got %v", err)
	}
}

func TestBadMagic(t *testing.T) {
	data := make([]byte, 24)
	if _, err := NewScanner(data); !errors.Is(err, ErrBadMagic) {
		t.Errorf("want ErrBadMagic, got %v", err)
	}
}

func TestBadVersion(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	binary.LittleEndian.PutUint16(data[4:6], 9)
	if _, err := NewScanner(data); !errors.Is(err, ErrBadVersion) {
		t.Errorf("want ErrBadVersion, got %v", err)
	}
}

func TestTruncatedHeader(t *testing.T) {
	if _, err := NewScanner(make([]byte, 10)); err == nil {
		t.Error("truncated global header accepted")
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRecord(Record{Time: time.Second, Data: make([]byte, 100)}); err != nil {
		t.Fatal(err)
	}
	// Chop off half the payload.
	data := buf.Bytes()[:buf.Len()-50]
	r, err := NewScanner(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := readRecord(r); err == nil {
		t.Error("truncated record accepted")
	}
}

func TestSnapLenEnforced(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRecord(Record{Data: make([]byte, DefaultSnapLen+1)}); !errors.Is(err, ErrSnapLen) {
		t.Errorf("oversize record error = %v, want ErrSnapLen", err)
	}
}

func TestBigEndianRead(t *testing.T) {
	// Hand-build a big-endian, microsecond pcap with one 4-byte record.
	var buf bytes.Buffer
	hdr := make([]byte, 24)
	binary.BigEndian.PutUint32(hdr[0:4], 0xa1b2c3d4)
	binary.BigEndian.PutUint16(hdr[4:6], 2)
	binary.BigEndian.PutUint16(hdr[6:8], 4)
	binary.BigEndian.PutUint32(hdr[16:20], 65535)
	binary.BigEndian.PutUint32(hdr[20:24], 1)
	buf.Write(hdr)
	rec := make([]byte, 16)
	binary.BigEndian.PutUint32(rec[0:4], 7)      // sec
	binary.BigEndian.PutUint32(rec[4:8], 250000) // usec
	binary.BigEndian.PutUint32(rec[8:12], 4)
	binary.BigEndian.PutUint32(rec[12:16], 4)
	buf.Write(rec)
	buf.Write([]byte{1, 2, 3, 4})

	r, err := NewScanner(buf.Bytes())
	if err != nil {
		t.Fatalf("NewScanner: %v", err)
	}
	got, err := readRecord(r)
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	want := 7*time.Second + 250*time.Millisecond
	if got.Time != want {
		t.Errorf("time = %v, want %v", got.Time, want)
	}
	if !bytes.Equal(got.Data, []byte{1, 2, 3, 4}) {
		t.Errorf("data = %v", got.Data)
	}
}

func TestNanosecondRead(t *testing.T) {
	var buf bytes.Buffer
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint32(hdr[0:4], 0xa1b23c4d) // nanosecond magic
	binary.LittleEndian.PutUint16(hdr[4:6], 2)
	binary.LittleEndian.PutUint16(hdr[6:8], 4)
	binary.LittleEndian.PutUint32(hdr[16:20], 65535)
	binary.LittleEndian.PutUint32(hdr[20:24], 1)
	buf.Write(hdr)
	rec := make([]byte, 16)
	binary.LittleEndian.PutUint32(rec[0:4], 1)
	binary.LittleEndian.PutUint32(rec[4:8], 500) // 500 ns
	binary.LittleEndian.PutUint32(rec[8:12], 1)
	binary.LittleEndian.PutUint32(rec[12:16], 1)
	buf.Write(rec)
	buf.WriteByte(0xab)

	r, err := NewScanner(buf.Bytes())
	if err != nil {
		t.Fatalf("NewScanner: %v", err)
	}
	got, err := readRecord(r)
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if want := time.Second + 500*time.Nanosecond; got.Time != want {
		t.Errorf("time = %v, want %v", got.Time, want)
	}
}

func TestRecordClaimsMoreThanSnapLen(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	_ = w
	data := buf.Bytes()
	rec := make([]byte, 16)
	binary.LittleEndian.PutUint32(rec[8:12], DefaultSnapLen+10)
	data = append(data, rec...)
	r, err := NewScanner(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := readRecord(r); !errors.Is(err, ErrSnapLen) {
		t.Errorf("want ErrSnapLen, got %v", err)
	}
}

// TestOrigLenRoundTrip is the regression test for the dropped origLen:
// the first reader discarded the header's last word, so a snapLen-truncated
// capture lost the true wire length of every frame.
func TestOrigLenRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// A frame captured whole, one truncated to 60 of 1500 bytes, and one
	// relying on the zero-means-len(Data) default.
	if err := w.WriteRecord(Record{Time: time.Second, Data: make([]byte, 80), OrigLen: 80}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRecord(Record{Time: 2 * time.Second, Data: make([]byte, 60), OrigLen: 1500}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRecord(Record{Time: 3 * time.Second, Data: make([]byte, 90)}); err != nil {
		t.Fatal(err)
	}

	r, err := NewScanner(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		origLen   int
		truncated bool
	}{
		{80, false},
		{1500, true},
		{90, false},
	}
	for i, w := range want {
		rec, err := readRecord(r)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rec.OrigLen != w.origLen {
			t.Errorf("record %d OrigLen = %d, want %d", i, rec.OrigLen, w.origLen)
		}
		if got := rec.OrigLen > len(rec.Data); got != w.truncated {
			t.Errorf("record %d truncated = %v, want %v", i, got, w.truncated)
		}
	}
}

// TestWriteRecordBadOrigLen: a record cannot claim fewer wire bytes than
// it carries.
func TestWriteRecordBadOrigLen(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	err = w.WriteRecord(Record{Time: time.Second, Data: make([]byte, 100), OrigLen: 99})
	if !errors.Is(err, ErrOrigLen) {
		t.Errorf("OrigLen < len(Data) error = %v, want ErrOrigLen", err)
	}
}

// TestWriteRecordTimestampRange is the regression test for the wrapping
// timestamp: negative offsets and seconds past 2^32-1 used to be cast
// straight through uint32() into plausible-looking garbage.
func TestWriteRecordTimestampRange(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte{1, 2, 3, 4}

	if err := w.WriteRecord(Record{Time: -time.Microsecond, Data: data}); !errors.Is(err, ErrTimestamp) {
		t.Errorf("negative time error = %v, want ErrTimestamp", err)
	}
	over := time.Duration(1<<32) * time.Second
	if err := w.WriteRecord(Record{Time: over, Data: data}); !errors.Is(err, ErrTimestamp) {
		t.Errorf("overflow time error = %v, want ErrTimestamp", err)
	}

	// The largest representable instant must still round-trip exactly.
	max := time.Duration(1<<32-1)*time.Second + 999999*time.Microsecond
	if err := w.WriteRecord(Record{Time: max, Data: data}); err != nil {
		t.Fatalf("boundary time rejected: %v", err)
	}
	r, err := NewScanner(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	rec, err := readRecord(r)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Time != max {
		t.Errorf("boundary time = %v, want %v", rec.Time, max)
	}
}

func BenchmarkWriteRecord(b *testing.B) {
	frame, err := packet.Encode(packet.Packet{
		Tuple: packet.Tuple{
			Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Proto: packet.TCP,
		},
		Dir: packet.Outgoing, Length: 720,
	})
	if err != nil {
		b.Fatal(err)
	}
	w, err := NewWriter(io.Discard)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.WriteRecord(Record{Time: time.Duration(i), Data: frame}); err != nil {
			b.Fatal(err)
		}
	}
}
