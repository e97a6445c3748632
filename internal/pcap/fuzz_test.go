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
// must terminate (walk checks all three).
func TestReaderRandomMutations(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := w.WriteRecord(Record{
			Time: time.Duration(i) * time.Second,
			Data: bytes.Repeat([]byte{byte(i)}, 40),
		}); err != nil {
			t.Fatal(err)
		}
	}
	valid := buf.Bytes()

	fn := func(pos uint16, mask byte, truncate uint16) bool {
		data := append([]byte(nil), valid...)
		data[int(pos)%len(data)] ^= mask
		data = data[:int(truncate)%(len(data)+1)]
		n, _ := walk(t, data[:len(data):len(data)])
		return n <= 5
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
