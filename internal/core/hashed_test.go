package core

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/spec"
)

func snapshotOf(t *testing.T, f *Filter) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestProcessHashedIntoRefusesMismatchedIndexes: pairs that are not two
// words per packet — a stale or truncated slice — are the caller's bug. The filter
// panics with a message before the clock, a bit or a counter moves.
func TestProcessHashedIntoRefusesMismatchedIndexes(t *testing.T) {
	pkts := spec.Trace(64, 4)
	for i := range pkts {
		pkts[i].Time += time.Minute // a judged batch would rotate
	}
	f := small()
	f.Process(outPkt(time.Second, client, server, 4000, 80))
	before, stats := snapshotOf(t, f), f.Stats()
	good := f.Hasher().HashBatch(pkts, nil)
	for name, pairs := range map[string][]uint64{"short": good[:len(good)-1], "long": append(good[:len(good):len(good)], 1), "none": nil} {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Errorf("%s: no panic", name)
				} else if msg := fmt.Sprint(r); !strings.Contains(msg, "ProcessHashedInto: pairs does not hold 2 words per packet") {
					t.Errorf("%s: panic %q", name, msg)
				}
			}()
			f.ProcessHashedInto(pkts, pairs, nil)
		}()
		if !bytes.Equal(snapshotOf(t, f), before) || !reflect.DeepEqual(f.Stats(), stats) {
			t.Fatalf("%s: the refused batch left a trace: %+v, was %+v", name, f.Stats(), stats)
		}
	}
	if got := f.ProcessHashedInto(pkts, good, nil); len(got) != len(pkts) || f.Stats().Rotations == 0 {
		t.Errorf("after the refusals: %d verdicts, %d rotations", len(got), f.Stats().Rotations)
	}
}

// TestHashedEntryPointsZeroAllocs: with buffers of the batch's size in hand,
// neither half allocates.
func TestHashedEntryPointsZeroAllocs(t *testing.T) {
	pkts := spec.Trace(512, 3)
	for i := range pkts {
		pkts[i].Time = 0
	}
	for _, m := range []int{3, 16} {
		f := small(WithHashes(m))
		h := f.Hasher()
		pairs := make([]uint64, 0, 2*len(pkts))
		out := make([]filtering.Verdict, len(pkts))
		if allocs := testing.AllocsPerRun(20, func() { pairs = h.HashBatch(pkts, pairs) }); allocs != 0 {
			t.Errorf("m=%d: HashBatch allocates %.1f times per batch", m, allocs)
		}
		if allocs := testing.AllocsPerRun(20, func() { out = f.ProcessHashedInto(pkts, pairs, out) }); allocs != 0 {
			t.Errorf("m=%d: ProcessHashedInto allocates %.1f times per batch", m, allocs)
		}
	}
}
