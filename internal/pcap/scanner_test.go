package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"
)

// rawRecord is one record as the file states it; incl may lie about data.
type rawRecord struct {
	sec, frac, incl, orig uint32
	data                  []byte
}

// buildCapture hand-writes a capture in either byte order and resolution,
// which the Writer (little-endian, microseconds) cannot.
func buildCapture(order binary.ByteOrder, nano bool, snapLen uint32, recs []rawRecord) []byte {
	magic := uint32(magicMicro)
	if nano {
		magic = magicNano
	}
	out := make([]byte, globalHeaderLen)
	order.PutUint32(out[0:4], magic)
	order.PutUint16(out[4:6], versionMajor)
	order.PutUint16(out[6:8], versionMinor)
	order.PutUint32(out[16:20], snapLen)
	order.PutUint32(out[20:24], LinkTypeEthernet)
	for _, r := range recs {
		var h [recordHeaderLen]byte
		order.PutUint32(h[0:4], r.sec)
		order.PutUint32(h[4:8], r.frac)
		order.PutUint32(h[8:12], r.incl)
		order.PutUint32(h[12:16], r.orig)
		out = append(append(out, h[:]...), r.data...)
	}
	return out
}

// someRecords is n well-formed records of assorted sizes, an empty one
// and a truncated one (orig > incl) among them.
func someRecords(n int) []rawRecord {
	recs := make([]rawRecord, n)
	for i := range recs {
		size := (i * 37) % 90
		recs[i] = rawRecord{
			sec: uint32(i / 3), frac: uint32(i%3) * 1000,
			incl: uint32(size), orig: uint32(size + (i%4)*100),
			data: bytes.Repeat([]byte{byte(i + 1)}, size),
		}
	}
	return recs
}

// walk runs a Scanner over data to its end and holds it to its contract on
// the way: every record is a fenced slice of data right behind its header,
// a failed Next leaves the caller's Record alone, and the Scanner is
// exhausted after its first error. It returns the records walked and that
// error (io.EOF for a clean end).
func walk(t testing.TB, data []byte) (int, error) {
	t.Helper()
	sc, err := NewScanner(data)
	if err != nil {
		return 0, err
	}
	off := globalHeaderLen
	for n := 0; ; n++ {
		var got Record
		if err := sc.Next(&got); err != nil {
			if got.Data != nil || got.Time != 0 || got.OrigLen != 0 {
				t.Fatalf("record %d: Scanner wrote %+v alongside %v", n, got, err)
			}
			if again := sc.Next(&got); again != io.EOF {
				t.Fatalf("record %d: Scanner returned %v after %v, want io.EOF", n, again, err)
			}
			return n, err
		}
		if cap(got.Data) != len(got.Data) {
			t.Fatalf("record %d: cap %d != len %d", n, cap(got.Data), len(got.Data))
		}
		if len(got.Data) > 0 && &got.Data[0] != &data[off+recordHeaderLen] {
			t.Fatalf("record %d: Data is not the capture's own bytes at %d", n, off+recordHeaderLen)
		}
		off += recordHeaderLen + len(got.Data)
		if off > len(data) {
			t.Fatalf("record %d: ends at %d, past the capture's %d bytes", n, off, len(data))
		}
		if sc.Offset() != off {
			t.Fatalf("record %d: Offset %d, the record ends at %d", n, sc.Offset(), off)
		}
	}
}

// TestScannerWalk walks every layout a capture can have, cut at every way
// its tail can be: the records that were written come back, with their
// times and lengths, and each damage ends the walk with its own error.
func TestScannerWalk(t *testing.T) {
	orders := []binary.ByteOrder{binary.LittleEndian, binary.BigEndian}
	for _, order := range orders {
		for _, nano := range []bool{false, true} {
			name := fmt.Sprintf("%v/nano=%v", order, nano)
			recs := someRecords(12)
			whole := buildCapture(order, nano, DefaultSnapLen, recs)

			n, err := walk(t, whole)
			if n != len(recs) || err != io.EOF {
				t.Errorf("%s: walked %d records then %v, want %d then io.EOF", name, n, err, len(recs))
			}
			// Every record comes back as written, byte order and resolution
			// honoured (record 1 carries 1000 fraction units).
			tick := time.Microsecond
			if nano {
				tick = time.Nanosecond
			}
			sc, _ := NewScanner(whole)
			for i, want := range recs {
				var rec Record
				if err := sc.Next(&rec); err != nil {
					t.Fatalf("%s: record %d: %v", name, i, err)
				}
				if at := time.Duration(want.sec)*time.Second + time.Duration(want.frac)*tick; rec.Time != at ||
					rec.OrigLen != int(want.orig) || !bytes.Equal(rec.Data, want.data) {
					t.Errorf("%s: record %d = %+v, want %+v at %v", name, i, rec, want, at)
				}
			}

			// Cut at every byte of the last two records: a clean end only on
			// a record boundary, io.ErrUnexpectedEOF everywhere else.
			last2 := 2*recordHeaderLen + len(recs[10].data) + len(recs[11].data)
			boundary := map[int]int{
				len(whole) - last2: 10,
				len(whole) - recordHeaderLen - len(recs[11].data): 11,
				len(whole): 12,
			}
			for cut := len(whole) - last2; cut <= len(whole); cut++ {
				n, err := walk(t, whole[:cut:cut])
				if records, ok := boundary[cut]; ok {
					if n != records || err != io.EOF {
						t.Errorf("%s cut at %d: %d records then %v, want %d then io.EOF", name, cut, n, err, records)
					}
				} else if !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Errorf("%s cut at %d: %v, want io.ErrUnexpectedEOF", name, cut, err)
				}
			}

			// A record longer than the file's snapLen, with its bytes present.
			long := append(someRecords(3), rawRecord{incl: 200, orig: 200, data: make([]byte, 200)}, rawRecord{incl: 1, orig: 1, data: []byte{9}})
			if n, err := walk(t, buildCapture(order, nano, 128, long)); n != 3 || !errors.Is(err, ErrSnapLen) {
				t.Errorf("%s over snapLen: %d records then %v, want 3 then ErrSnapLen", name, n, err)
			}
			// A file whose snapLen allows anything: MaxRecordLen still holds.
			huge := append(someRecords(2), rawRecord{incl: MaxRecordLen + 1, orig: MaxRecordLen + 1})
			if n, err := walk(t, buildCapture(order, nano, 0xffffffff, huge)); n != 2 || !errors.Is(err, ErrSnapLen) {
				t.Errorf("%s over MaxRecordLen: %d records then %v, want 2 then ErrSnapLen", name, n, err)
			}
		}
	}

	// What is not a capture at all fails at open.
	for data, want := range map[string]error{
		"":           io.EOF,
		"0123456789": io.ErrUnexpectedEOF,
		"this is definitely not a pcap capture file": ErrBadMagic,
	} {
		if _, err := walk(t, []byte(data)); !errors.Is(err, want) {
			t.Errorf("open %q: %v, want %v", data, err, want)
		}
	}
	badVersion := buildCapture(binary.BigEndian, false, DefaultSnapLen, nil)
	badVersion[5] = 3
	if _, err := walk(t, badVersion); !errors.Is(err, ErrBadVersion) {
		t.Errorf("version 3.4: %v, want ErrBadVersion", err)
	}
}

// TestScannerRewind: Rewind is what a looping replay does between passes.
func TestScannerRewind(t *testing.T) {
	sc, err := NewScanner(buildCapture(binary.LittleEndian, false, DefaultSnapLen, someRecords(5)))
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 3; pass++ {
		n := 0
		var rec Record
		for sc.Next(&rec) == nil {
			n++
		}
		if n != 5 {
			t.Fatalf("pass %d walked %d records, want 5", pass, n)
		}
		sc.Rewind()
	}
}

// touchedWalk is what a walk of data comes to: every record, the error
// that ended it and the Scanner it left behind. With every > 0 it calls
// Touch(span) before the first record and before every every-th after it,
// as a replay does before each batch.
func touchedWalk(data []byte, span, every int) (recs []Record, end error, final Scanner) {
	sc, err := NewScanner(data)
	if err != nil {
		return nil, err, Scanner{}
	}
	for {
		if every > 0 && len(recs)%every == 0 {
			sc.Touch(span)
		}
		var rec Record
		if err := sc.Next(&rec); err != nil {
			return recs, err, *sc
		}
		recs = append(recs, rec)
	}
}

// sameWalk holds the touched walk of data to the plain one: the same
// records — the same bytes of data, not equal ones — the same error, the
// same Scanner afterwards.
func sameWalk(t testing.TB, data []byte, span, every int) {
	t.Helper()
	want, wantErr, wantFinal := touchedWalk(data, 0, 0)
	got, gotErr, gotFinal := touchedWalk(data, span, every)
	if gotErr != wantErr && (gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error()) {
		t.Fatalf("Touch(%d) every %d: walk ended with %v, without it %v", span, every, gotErr, wantErr)
	}
	if len(got) != len(want) || gotFinal.off != wantFinal.off || gotFinal.layout != wantFinal.layout {
		t.Fatalf("Touch(%d) every %d: %d records and the Scanner at %d, without it %d and %d", span, every, len(got), gotFinal.off, len(want), wantFinal.off)
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Time != w.Time || g.OrigLen != w.OrigLen || len(g.Data) != len(w.Data) || cap(g.Data) != cap(w.Data) ||
			(len(w.Data) > 0 && &g.Data[0] != &w.Data[0]) {
			t.Fatalf("Touch(%d) every %d: record %d = %+v, without it %+v", span, every, i, g, w)
		}
	}
}

// TestScannerTouchIsTheWalk: Touch loads and moves nothing, whatever it is
// asked for and whatever lies inside the span — so the walk behind it is the
// plain walk, record for record, and ends in the same error at the same
// place. The spans run from nothing to more than there is (clamped at the
// end of the data) and to what no caller should pass.
func TestScannerTouchIsTheWalk(t *testing.T) {
	recs := someRecords(40)
	whole := buildCapture(binary.LittleEndian, false, DefaultSnapLen, recs)
	cut := func(n int) []byte { return whole[:n:n] }
	long := append(someRecords(7), rawRecord{incl: 200, orig: 200, data: make([]byte, 200)}, rawRecord{incl: 1, orig: 1, data: []byte{9}})
	captures := map[string][]byte{
		"whole":             whole,
		"big-endian nano":   buildCapture(binary.BigEndian, true, DefaultSnapLen, recs),
		"no records":        cut(globalHeaderLen),
		"shorter than span": cut(globalHeaderLen + 50),
		"last header torn":  cut(len(whole) - len(recs[39].data) - 3),
		"last body torn":    cut(len(whole) - 1),
		"over snapLen":      buildCapture(binary.LittleEndian, false, 128, long),
		"not a capture":     []byte("this is definitely not a pcap capture file"),
	}
	spans := []int{0, 1, cacheLine - 1, cacheLine, cacheLine + 1, 700, len(whole), len(whole) + 1, 1 << 40, -1, -1 << 40}
	for name, data := range captures {
		t.Run(name, func(t *testing.T) {
			for _, span := range spans {
				for _, every := range []int{1, 8, 1000} {
					sameWalk(t, data, span, every)
				}
			}
		})
	}

	// The loads are real: one per cache line of the span, clamped — a sum
	// over known bytes says which were read.
	ones := bytes.Repeat([]byte{1}, 1000)
	sc := &Scanner{data: ones, off: 100}
	for span, want := range map[int]byte{0: 0, -5: 0, 1: 1, cacheLine: 1, cacheLine + 1: 2, 10 * cacheLine: 10, 900: 15, 901: 15, 1 << 40: 15} {
		if got := sc.Touch(span); got != want || sc.off != 100 {
			t.Errorf("Touch(%d) over 900 bytes of ones loaded %d bytes and left the Scanner at %d, want %d and 100", span, got, sc.off, want)
		}
	}
	sc.off = len(ones)
	if got := sc.Touch(64); got != 0 {
		t.Errorf("Touch at the end of the data loaded %d bytes", got)
	}
}

// FuzzScanner drives arbitrary bytes through the Scanner: whatever the
// input it terminates without a panic, and walk's slicing checks mean it
// never reached past data. Its second arm holds the walk behind Touch to the
// walk without it, for spans short of, at and past the end of the input.
func FuzzScanner(f *testing.F) {
	f.Add(buildCapture(binary.LittleEndian, false, DefaultSnapLen, someRecords(4)))
	f.Add(buildCapture(binary.BigEndian, true, 64, someRecords(4)))
	f.Add(buildCapture(binary.LittleEndian, true, 0xffffffff, []rawRecord{{incl: MaxRecordLen + 1}}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		data = data[:len(data):len(data)]
		walk(t, data)
		for _, span := range []int{1, 100, len(data) / 2, len(data) + 1} {
			sameWalk(t, data, span, 1)
			sameWalk(t, data, span, 3)
		}
	})
}
