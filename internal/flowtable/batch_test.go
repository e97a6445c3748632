package flowtable

import (
	"testing"
	"time"

	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/xrand"
)

// batchTrace builds a mixed outgoing/incoming trace over a small tuple
// space so lookups hit established flows.
func batchTrace(n int, seed uint64) []packet.Packet {
	r := xrand.New(seed)
	pkts := make([]packet.Packet, 0, n)
	now := time.Duration(0)
	for len(pkts) < n {
		now += time.Duration(r.Intn(int(200 * time.Millisecond)))
		sp := uint16(4000 + r.Intn(24))
		if r.Bool(0.5) {
			pkts = append(pkts, outPkt(now, client, server, sp, 80))
		} else {
			pkts = append(pkts, inPkt(now, server, client, 80, sp))
		}
	}
	return pkts
}

// TestBatchFallbackMatchesProcess checks that filtering.AsBatch — the only
// batch data plane the SPI tables have — yields verdicts identical to
// per-packet Process on a twin instance, and that the caller-buffer
// contract (reuse when cap suffices, full overwrite) holds.
func TestBatchFallbackMatchesProcess(t *testing.T) {
	pkts := batchTrace(1500, 11)

	cases := append(factories(), tableFactory{
		name: "naive",
		make: func(opts ...Option) filtering.PacketFilter { return NewNaive(30 * time.Second) },
	})
	for _, tf := range cases {
		t.Run(tf.name, func(t *testing.T) {
			bat, seq := filtering.AsBatch(tf.make()), tf.make()

			out := make([]filtering.Verdict, 8, 8)
			for i := range out {
				out[i] = filtering.Verdict(200) // poison
			}
			const chunk = 97 // unaligned on purpose
			for off := 0; off < len(pkts); off += chunk {
				end := min(off+chunk, len(pkts))
				prev := out
				out = bat.ProcessBatchInto(pkts[off:end], out)
				if cap(prev) >= end-off && &out[0] != &prev[0] {
					t.Fatal("buffer with sufficient cap not reused")
				}
				for i := off; i < end; i++ {
					if want := seq.Process(pkts[i]); out[i-off] != want {
						t.Fatalf("verdict[%d] = %v, want %v", i, out[i-off], want)
					}
				}
			}

			// ProcessBatch on a fresh pair agrees too and handles empty.
			bat2, seq2 := filtering.AsBatch(tf.make()), tf.make()
			got := bat2.ProcessBatch(pkts[:64])
			for i := range got {
				if want := seq2.Process(pkts[i]); got[i] != want {
					t.Fatalf("ProcessBatch verdict[%d] = %v, want %v", i, got[i], want)
				}
			}
			if v := bat2.ProcessBatch(nil); v != nil {
				t.Errorf("ProcessBatch(nil) = %v", v)
			}
		})
	}
}
