package pcap

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"
)

// TestReaderRandomMutations complements FuzzScanner's corpus under plain
// `go test`: bit flips and truncations of a valid capture must never
// panic, every record read must be the capture's own bytes, and reading
// must terminate (walk checks all three) — and no damage conjures records:
// five were written and five is the most that come back, unless the flipped
// byte lies in an incl_len field. A shortened record leaves payload behind
// for the walk to read as headers, and record 0's payload is all zeros, each
// sixteen of them an empty record: two fit in one payload, no more.
func TestReaderRandomMutations(t *testing.T) {
	const records, payload = 5, 40
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < records; i++ {
		if err := w.WriteRecord(Record{
			Time: time.Duration(i) * time.Second,
			Data: bytes.Repeat([]byte{byte(i)}, payload),
		}); err != nil {
			t.Fatal(err)
		}
	}
	valid := buf.Bytes()

	fn := func(pos uint16, mask byte, truncate uint16) bool {
		data := append([]byte(nil), valid...)
		at := int(pos) % len(data)
		data[at] ^= mask
		data = data[:int(truncate)%(len(data)+1)]
		n, _ := walk(t, data[:len(data):len(data)])
		bound := records
		if field := (at - globalHeaderLen) % (recordHeaderLen + payload); at >= globalHeaderLen && field >= 8 && field < 12 {
			bound += payload / recordHeaderLen
		}
		return n <= bound
	}
	// The three flips that do re-frame record 0's payload, every run: quick
	// alone draws one of them about one run in a hundred.
	for _, mask := range []byte{0x20, 0x24, 0x30} {
		if !fn(globalHeaderLen+8, mask, uint16(len(valid))) {
			t.Errorf("incl_len of record 0 flipped by %#x: more records than its payload has room for", mask)
		}
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
