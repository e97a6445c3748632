package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
	"time"

	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/xrand"
)

// markFlows drives n distinct outgoing flows through f and returns their
// reply tuples (what the remote servers send back).
func markFlows(f filtering.PacketFilter, n int, seed uint64) []packet.Tuple {
	r := xrand.New(seed)
	replies := make([]packet.Tuple, 0, n)
	now := time.Duration(0)
	for i := 0; i < n; i++ {
		now += time.Duration(r.Intn(90)) * time.Microsecond
		dst := packet.Addr(r.Uint32() | 1)
		sp, dp := uint16(1024+r.Intn(60000)), uint16(1+r.Intn(1024))
		f.Process(outPkt(now, client, dst, sp, dp))
		replies = append(replies, packet.Tuple{
			Src: dst, Dst: client, SrcPort: dp, DstPort: sp, Proto: packet.TCP,
		})
	}
	return replies
}

func mustSharded(t *testing.T, n int, opts ...Option) *Sharded {
	t.Helper()
	s, err := NewSharded(n, opts...)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	return s
}

func mustSnapshot(t *testing.T, s Snapshottable) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	return buf.Bytes()
}

func TestSafeSnapshotRoundTrip(t *testing.T) {
	s := NewSafe(small(WithSeed(3)))
	replies := markFlows(s, 500, 11)

	g, err := ReadSafeSnapshot(bytes.NewReader(mustSnapshot(t, s)))
	if err != nil {
		t.Fatalf("ReadSafeSnapshot: %v", err)
	}
	if g.Stats().Marks != s.Stats().Marks || g.Counters() != s.Counters() {
		t.Errorf("state not restored: %+v vs %+v", g.Counters(), s.Counters())
	}
	for _, tup := range replies {
		if s.WouldAdmit(tup) != g.WouldAdmit(tup) {
			t.Fatalf("verdict divergence on %v", tup)
		}
	}
}

func TestShardedSnapshotRoundTrip(t *testing.T) {
	s := mustSharded(t, 4, WithOrder(12), WithVectors(3), WithHashes(2),
		WithRotateEvery(5*time.Second), WithSeed(7))
	replies := markFlows(s, 2000, 12)

	g, err := ReadShardedSnapshot(bytes.NewReader(mustSnapshot(t, s)))
	if err != nil {
		t.Fatalf("ReadShardedSnapshot: %v", err)
	}
	if g.Shards() != s.Shards() {
		t.Fatalf("shard count %d, want %d", g.Shards(), s.Shards())
	}
	if g.Stats().Marks != s.Stats().Marks || g.Counters() != s.Counters() {
		t.Errorf("aggregate state not restored: %+v vs %+v", g.Stats(), s.Stats())
	}
	// Flow routing and per-shard seeds must survive: identical verdicts on
	// both the marked flows and a random battery.
	r := xrand.New(99)
	for _, tup := range replies {
		if !g.WouldAdmit(tup) {
			t.Fatalf("restored sharded filter forgot flow %v", tup)
		}
	}
	for i := 0; i < 5000; i++ {
		tup := packet.Tuple{
			Src: packet.Addr(r.Uint32() | 1), Dst: client,
			SrcPort: uint16(1 + r.Intn(65535)), DstPort: uint16(1 + r.Intn(65535)),
			Proto: packet.TCP,
		}
		if s.WouldAdmit(tup) != g.WouldAdmit(tup) {
			t.Fatalf("verdict divergence on %v", tup)
		}
	}
}

func TestShardedSnapshotAPDReattach(t *testing.T) {
	s := mustSharded(t, 2, WithOrder(10), WithVectors(2), WithHashes(2),
		WithRotateEvery(time.Second))
	data := mustSnapshot(t, s)

	// A stateless policy may be shared; p=0 admits unmatched packets,
	// proving it took effect on the restored shards.
	g, err := ReadShardedSnapshot(bytes.NewReader(data), WithAPD(fixedPolicy{p: 0}))
	if err != nil {
		t.Fatal(err)
	}
	if v := g.Process(inPkt(0, server, client, 80, 9999)); v != filtering.Pass {
		t.Error("APD option not applied on sharded restore")
	}

	// A stateful, cloneable policy is cloned per shard like NewSharded.
	p, err := NewRatioPolicy(1, 3, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadShardedSnapshot(bytes.NewReader(data), WithAPD(p)); err != nil {
		t.Errorf("cloneable APD policy rejected on restore: %v", err)
	}
}

// makeV1 re-encodes a v2 single-filter snapshot in the legacy v1 layout
// (bare header + raw vectors, no checksums): a well-formed stream of the
// format the readers no longer decode.
func makeV1(t *testing.T, f *Filter) []byte {
	t.Helper()
	data := mustSnapshot(t, f)
	var out bytes.Buffer
	var word [4]byte
	le := binary.LittleEndian
	le.PutUint32(word[:], snapshotMagicV1)
	out.Write(word[:])
	le.PutUint32(word[:], 1)
	out.Write(word[:])
	hdrOff := containerHeaderLen + 4
	out.Write(data[hdrOff : hdrOff+sectionHeaderLen])
	vecLen := (1 << f.Order()) / 8
	off := hdrOff + sectionHeaderLen + 4
	for i := 0; i < f.Vectors(); i++ {
		out.Write(data[off : off+vecLen]) // payload, dropping the v2 CRC
		off += vecLen + 4
	}
	return out.Bytes()
}

// TestSnapshotV1Rejected: a v1 stream is outside input the readers must
// refuse by name — ErrSnapshotVersion from every entry point, never a
// decode — and its truncations must fail cleanly too.
func TestSnapshotV1Rejected(t *testing.T) {
	f := small(WithSeed(5))
	markFlows(f, 300, 13)
	v1 := makeV1(t, f)

	readers := map[string]func([]byte) error{
		"ReadSnapshot": func(b []byte) error {
			_, err := ReadSnapshot(bytes.NewReader(b))
			return err
		},
		"ReadShardedSnapshot": func(b []byte) error {
			_, err := ReadShardedSnapshot(bytes.NewReader(b))
			return err
		},
		"ReadAnySnapshot": func(b []byte) error {
			_, err := ReadAnySnapshot(bytes.NewReader(b))
			return err
		},
	}
	for name, read := range readers {
		for _, n := range []int{len(v1), len(v1) - 1, 50, 8} {
			if err := read(v1[:n]); !errors.Is(err, ErrSnapshotVersion) {
				t.Errorf("%s(v1[:%d]) = %v, want ErrSnapshotVersion", name, n, err)
			}
		}
		// Cut inside magic+version there is no version to name yet.
		for _, n := range []int{7, 4, 0} {
			if err := read(v1[:n]); !errors.Is(err, ErrSnapshotCorrupt) {
				t.Errorf("%s(v1[:%d]) = %v, want ErrSnapshotCorrupt", name, n, err)
			}
		}
	}
}

func TestSnapshotTrailingBytesRejected(t *testing.T) {
	f := small()
	sh := mustSharded(t, 2, WithOrder(10), WithVectors(2), WithHashes(2),
		WithRotateEvery(time.Second))
	cases := map[string]struct {
		data []byte
		read func([]byte) error
	}{
		"v2 filter": {mustSnapshot(t, f), func(b []byte) error {
			_, err := ReadSnapshot(bytes.NewReader(b))
			return err
		}},
		"v2 sharded": {mustSnapshot(t, sh), func(b []byte) error {
			_, err := ReadShardedSnapshot(bytes.NewReader(b))
			return err
		}},
		"any": {mustSnapshot(t, sh), func(b []byte) error {
			_, err := ReadAnySnapshot(bytes.NewReader(b))
			return err
		}},
	}
	for name, tc := range cases {
		if err := tc.read(tc.data); err != nil {
			t.Errorf("%s: clean stream rejected: %v", name, err)
		}
		padded := append(bytes.Clone(tc.data), 0)
		if err := tc.read(padded); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("%s: trailing byte gave %v, want ErrSnapshotCorrupt", name, err)
		}
		doubled := append(bytes.Clone(tc.data), tc.data...)
		if err := tc.read(doubled); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("%s: concatenated streams gave %v, want ErrSnapshotCorrupt", name, err)
		}
	}
}

// rewriteHeaderField patches an int64 field of the v2 section header in
// place and fixes up the header checksum so only the semantic validation
// can reject the stream.
func rewriteHeaderField(data []byte, fieldOff int, val int64) {
	hdrOff := containerHeaderLen + 4
	le := binary.LittleEndian
	le.PutUint64(data[hdrOff+fieldOff:], uint64(val))
	le.PutUint32(data[hdrOff+sectionHeaderLen:],
		crc32.Checksum(data[hdrOff:hdrOff+sectionHeaderLen], castagnoli))
}

func TestSnapshotRotateDeadlineBound(t *testing.T) {
	f := small() // Δt = 5s
	data := mustSnapshot(t, f)

	// NextRotNs (offset 48) more than Δt after NowNs (offset 40) violates
	// the nextRotate ∈ (now, now+Δt] invariant and would extend mark
	// lifetime beyond T_e.
	bad := bytes.Clone(data)
	rewriteHeaderField(bad, 48, int64(6*time.Second))
	if _, err := ReadSnapshot(bytes.NewReader(bad)); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Errorf("nextRotate beyond Δt gave %v, want ErrSnapshotCorrupt", err)
	}

	// nextRotate not after now is equally invalid.
	bad = bytes.Clone(data)
	rewriteHeaderField(bad, 40, int64(2*time.Second))
	rewriteHeaderField(bad, 48, int64(time.Second))
	if _, err := ReadSnapshot(bytes.NewReader(bad)); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Errorf("nextRotate before now gave %v, want ErrSnapshotCorrupt", err)
	}

	// A negative clock must not sneak past the overflow guard.
	bad = bytes.Clone(data)
	rewriteHeaderField(bad, 40, -1)
	if _, err := ReadSnapshot(bytes.NewReader(bad)); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Errorf("negative clock gave %v, want ErrSnapshotCorrupt", err)
	}

	// The exact boundary nextRotate = now + Δt is legal.
	ok := bytes.Clone(data)
	rewriteHeaderField(ok, 40, 0)
	rewriteHeaderField(ok, 48, int64(5*time.Second))
	if _, err := ReadSnapshot(bytes.NewReader(ok)); err != nil {
		t.Errorf("boundary nextRotate = now+Δt rejected: %v", err)
	}
}

// setVectorBit sets one bit of vector vec in a single-filter v2 stream of
// the given order and fixes up that vector's checksum, so only a semantic
// check can refuse the stream.
func setVectorBit(data []byte, order uint, vec int, bit uint64) {
	vecLen := 1 << (order - 3)
	off := containerHeaderLen + 4 + sectionHeaderLen + 4 + vec*(vecLen+4)
	data[off+int(bit/8)] |= 1 << (bit % 8)
	binary.LittleEndian.PutUint32(data[off+vecLen:],
		crc32.Checksum(data[off:off+vecLen], castagnoli))
}

// TestSnapshotRefusesUnnestedVectors: a bit set only in the newest vector
// is a state no MarkAllVectors filter can write. Restoring it would let
// mark's shortcut skip an outgoing packet whose bits the newest vector
// "already holds" while the current vector — the one replies are looked up
// in — does not, so the stream must be refused, not trusted.
func TestSnapshotRefusesUnnestedVectors(t *testing.T) {
	opts := []Option{WithOrder(8), WithVectors(4), WithHashes(2), WithRotateEvery(time.Second)}
	f := MustNew(opts...)
	f.Process(outPkt(0, client, server, 4000, 80))
	f.Process(outPkt(1500*time.Millisecond, client, server, 4001, 80)) // one rotation: idx 1, newest 0
	data := mustSnapshot(t, f)
	if _, err := ReadSnapshot(bytes.NewReader(data)); err != nil {
		t.Fatalf("honest snapshot refused: %v", err)
	}

	// Every bit of the victim's key, set in the newest vector only.
	reply := packet.Tuple{Src: server, Dst: client, SrcPort: 80, DstPort: 4002, Proto: packet.TCP}
	victim := f.indexes(&reply, packet.Incoming)
	for newer := 0; newer < 4; newer++ {
		if newer == f.idx {
			continue // the current vector is the oldest: a superset of all
		}
		bad := bytes.Clone(data)
		for _, i := range victim {
			setVectorBit(bad, 8, newer, f.vectors[0].Mask(i))
		}
		if _, err := ReadSnapshot(bytes.NewReader(bad)); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("bits only in vector %d (current %d) gave %v, want ErrSnapshotCorrupt", newer, f.idx, err)
		}
		if _, err := ReadAnySnapshot(bytes.NewReader(bad)); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("ReadAnySnapshot: bits only in vector %d gave %v, want ErrSnapshotCorrupt", newer, err)
		}
	}

	// The same bits in the current (oldest) vector alone keep the chain
	// nested: it is what a filter holds after k−1 rotations.
	ok := bytes.Clone(data)
	for _, i := range victim {
		setVectorBit(ok, 8, f.idx, f.vectors[0].Mask(i))
	}
	if _, err := ReadSnapshot(bytes.NewReader(ok)); err != nil {
		t.Errorf("bits in the oldest vector only refused: %v", err)
	}

	// MarkCurrentOnly never takes the shortcut, so nothing rests on its
	// vectors being nested and the same crafted words are not refused.
	g := MustNew(append(opts, WithMarkPolicy(MarkCurrentOnly))...)
	g.Process(outPkt(1500*time.Millisecond, client, server, 4001, 80))
	loose := mustSnapshot(t, g)
	setVectorBit(loose, 8, 0, 5) // g.idx is 1: vector 0 is the newest
	if _, err := ReadSnapshot(bytes.NewReader(loose)); err != nil {
		t.Errorf("MarkCurrentOnly snapshot refused: %v", err)
	}
}

func TestSnapshotKindMismatch(t *testing.T) {
	f := small()
	sh := mustSharded(t, 2, WithOrder(10), WithVectors(2), WithHashes(2),
		WithRotateEvery(time.Second))

	if _, err := ReadSnapshot(bytes.NewReader(mustSnapshot(t, sh))); !errors.Is(err, ErrSnapshotKind) {
		t.Errorf("ReadSnapshot(sharded) = %v, want ErrSnapshotKind", err)
	}
	if _, err := ReadShardedSnapshot(bytes.NewReader(mustSnapshot(t, f))); !errors.Is(err, ErrSnapshotKind) {
		t.Errorf("ReadShardedSnapshot(filter) = %v, want ErrSnapshotKind", err)
	}
}

func TestReadAnySnapshotFlavors(t *testing.T) {
	f := small()
	sh := mustSharded(t, 4, WithOrder(10), WithVectors(2), WithHashes(2),
		WithRotateEvery(time.Second))

	got, err := ReadAnySnapshot(bytes.NewReader(mustSnapshot(t, f)))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got.(*Filter); !ok {
		t.Errorf("filter stream restored as %T", got)
	}

	got, err = ReadAnySnapshot(bytes.NewReader(mustSnapshot(t, sh)))
	if err != nil {
		t.Fatal(err)
	}
	restored, ok := got.(*Sharded)
	if !ok {
		t.Fatalf("sharded stream restored as %T", got)
	}
	if restored.Shards() != 4 {
		t.Errorf("restored %d shards, want 4", restored.Shards())
	}
}

// TestSnapshotCrossFlavorEquivalence is the 100K-packet differential:
// every flavor sees the same traffic, is snapshotted and restored, and
// each restored filter must be verdict-identical to its live counterpart —
// and all flavors must agree on the flows that were actually marked.
func TestSnapshotCrossFlavorEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("100K-packet differential")
	}
	opts := []Option{WithOrder(16), WithVectors(4), WithHashes(3),
		WithRotateEvery(5 * time.Second), WithSeed(21)}
	plain := MustNew(opts...)
	safe := NewSafe(MustNew(opts...))
	sharded := mustSharded(t, 4, opts...)
	flavors := []struct {
		name    string
		live    Snapshottable
		restore func([]byte) (Snapshottable, error)
	}{
		{"filter", plain, func(b []byte) (Snapshottable, error) {
			return ReadSnapshot(bytes.NewReader(b))
		}},
		{"safe", safe, func(b []byte) (Snapshottable, error) {
			return ReadSafeSnapshot(bytes.NewReader(b))
		}},
		{"sharded", sharded, func(b []byte) (Snapshottable, error) {
			return ReadAnySnapshot(bytes.NewReader(b))
		}},
	}

	const packets = 100_000
	r := xrand.New(77)
	now := time.Duration(0)
	probes := make([]packet.Tuple, 0, packets/10)
	for i := 0; i < packets; i++ {
		now += time.Duration(r.Intn(50)) * time.Microsecond
		dst := packet.Addr(r.Uint32() | 1)
		sp, dp := uint16(1024+r.Intn(60000)), uint16(1+r.Intn(1024))
		pkt := outPkt(now, client, dst, sp, dp)
		for _, fl := range flavors {
			fl.live.Process(pkt)
		}
		if i%10 == 0 {
			probes = append(probes, packet.Tuple{
				Src: dst, Dst: client, SrcPort: dp, DstPort: sp, Proto: packet.TCP,
			})
		}
	}

	restored := make([]Snapshottable, len(flavors))
	for i, fl := range flavors {
		g, err := fl.restore(mustSnapshot(t, fl.live))
		if err != nil {
			t.Fatalf("%s: restore: %v", fl.name, err)
		}
		restored[i] = g
		if g.Stats().Marks != fl.live.Stats().Marks {
			t.Errorf("%s: marks %d != %d", fl.name, g.Stats().Marks, fl.live.Stats().Marks)
		}
	}
	for _, tup := range probes {
		for i, fl := range flavors {
			if !restored[i].(interface{ WouldAdmit(packet.Tuple) bool }).WouldAdmit(tup) {
				t.Fatalf("%s: restored filter forgot marked flow %v", fl.name, tup)
			}
		}
	}
	// Random battery: each restored flavor must match its own live filter
	// bit-for-bit (false positives included).
	type admitter interface{ WouldAdmit(packet.Tuple) bool }
	for i := 0; i < 20_000; i++ {
		tup := packet.Tuple{
			Src: packet.Addr(r.Uint32() | 1), Dst: client,
			SrcPort: uint16(1 + r.Intn(65535)), DstPort: uint16(1 + r.Intn(65535)),
			Proto: packet.TCP,
		}
		for j, fl := range flavors {
			if fl.live.(admitter).WouldAdmit(tup) != restored[j].(admitter).WouldAdmit(tup) {
				t.Fatalf("%s: verdict divergence on %v", fl.name, tup)
			}
		}
	}
}
