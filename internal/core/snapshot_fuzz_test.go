package core

import (
	"bytes"
	"testing"
	"time"
)

// fuzzSeedStreams returns valid v2 filter bytes and v2 sharded bytes; the
// fuzzers add single-bit-flip mutants of them, so they start from the
// interesting frontier of almost-valid inputs rather than random noise.
func fuzzSeedStreams(f *testing.F) (filter, sharded []byte) {
	valid := MustNew(WithOrder(8), WithVectors(2), WithHashes(2),
		WithRotateEvery(time.Second))
	valid.Process(outPkt(0, client, server, 4000, 80))
	var buf bytes.Buffer
	if err := valid.WriteSnapshot(&buf); err != nil {
		f.Fatal(err)
	}
	sh, err := NewSharded(2, WithOrder(8), WithVectors(2), WithHashes(2),
		WithRotateEvery(time.Second))
	if err != nil {
		f.Fatal(err)
	}
	sh.Process(outPkt(0, client, server, 4000, 80))
	var shBuf bytes.Buffer
	if err := sh.WriteSnapshot(&shBuf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes(), shBuf.Bytes()
}

// FuzzReadSnapshot drives arbitrary bytes through the snapshot decoder:
// inputs may be rejected but must never panic or build an inconsistent
// filter, and an accepted input must re-serialize to an equal stream.
func FuzzReadSnapshot(f *testing.F) {
	filterBytes, shardedBytes := fuzzSeedStreams(f)
	f.Add(filterBytes)
	f.Add(filterBytes[:40])
	f.Add(shardedBytes)
	f.Add([]byte{})
	unnested := bytes.Clone(filterBytes) // checksums good, bit 5 in the newest vector only
	setVectorBit(unnested, 8, 1, 5)
	f.Add(unnested)
	for _, bit := range []int{0, 37, 8 * 30, 8*len(filterBytes) - 1} {
		flipped := bytes.Clone(filterBytes)
		flipped[bit/8] ^= 1 << (bit % 8)
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Any accepted snapshot must yield a usable filter.
		if g.MemoryBytes() == 0 {
			t.Fatal("restored filter has no memory")
		}
		if u := g.Utilization(); u < 0 || u > 1 {
			t.Fatalf("utilization %v", u)
		}
		if g.cfg.markPolicy == MarkAllVectors && !g.nested() {
			t.Fatal("accepted a MarkAllVectors snapshot whose vectors are not nested")
		}
		// An accepted stream round-trips: writing the restored filter and
		// reading it back reproduces the exact state.
		var buf bytes.Buffer
		if err := g.WriteSnapshot(&buf); err != nil {
			t.Fatalf("re-serialize accepted snapshot: %v", err)
		}
		h, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-read accepted snapshot: %v", err)
		}
		var buf2 bytes.Buffer
		if err := h.WriteSnapshot(&buf2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatal("accepted snapshot does not round-trip to a fixed point")
		}
		g.Process(outPkt(g.ExpiryTimer(), client, server, 1, 2))
	})
}

// FuzzReadShardedSnapshot is the same property for the multi-section
// sharded container.
func FuzzReadShardedSnapshot(f *testing.F) {
	filterBytes, shardedBytes := fuzzSeedStreams(f)
	f.Add(shardedBytes)
	f.Add(filterBytes)
	f.Add(shardedBytes[:len(shardedBytes)/2])
	f.Add([]byte{})
	unnested := bytes.Clone(shardedBytes) // shard 0 sits where a lone filter's section would
	setVectorBit(unnested, 8, 1, 5)
	f.Add(unnested)
	for _, bit := range []int{4, 70, 8 * 130, 8*len(shardedBytes) - 2} {
		flipped := bytes.Clone(shardedBytes)
		flipped[bit/8] ^= 1 << (bit % 8)
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadShardedSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		if g.Shards() < 1 {
			t.Fatal("restored composite has no shards")
		}
		for i, sh := range g.shards {
			if sh.f.cfg.markPolicy == MarkAllVectors && !sh.f.nested() {
				t.Fatalf("accepted shard %d with vectors that are not nested", i)
			}
		}
		if u := g.Utilization(); u < 0 || u > 1 {
			t.Fatalf("utilization %v", u)
		}
		var buf bytes.Buffer
		if err := g.WriteSnapshot(&buf); err != nil {
			t.Fatalf("re-serialize accepted snapshot: %v", err)
		}
		if _, err := ReadShardedSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("re-read accepted snapshot: %v", err)
		}
		g.Process(outPkt(g.Stats().ExpiryTimer, client, server, 1, 2))
	})
}
