package filtering_test

import (
	"testing"
	"time"

	"bitmapfilter/internal/core"
	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/flowtable"
	"bitmapfilter/internal/packet"
)

// plainFilter hides a filter's native batch methods so AsBatch must wrap
// it in the generic per-packet fallback.
type plainFilter struct{ f filtering.PacketFilter }

func (p plainFilter) Process(pkt packet.Packet) filtering.Verdict { return p.f.Process(pkt) }
func (p plainFilter) AdvanceTo(now time.Duration)                 { p.f.AdvanceTo(now) }
func (p plainFilter) Name() string                                { return p.f.Name() }
func (p plainFilter) MemoryBytes() uint64                         { return p.f.MemoryBytes() }
func (p plainFilter) Counters() filtering.Counters                { return p.f.Counters() }

// TestEmptyBatchContract pins the empty-batch behavior documented on
// BatchFilter for every implementation in the repository (the SPI tables
// have no batch methods of their own and get AsBatch's fallback, as their
// callers do): ProcessBatch returns nil (never a non-nil empty slice), and
// ProcessBatchInto returns a length-0 slice that keeps the caller's backing
// array.
func TestEmptyBatchContract(t *testing.T) {
	sharded, err := core.NewSharded(4, core.WithOrder(10))
	if err != nil {
		t.Fatal(err)
	}
	flavors := []struct {
		name string
		f    filtering.BatchFilter
	}{
		{"core.Filter", core.MustNew(core.WithOrder(10))},
		{"core.Safe", core.NewSafe(core.MustNew(core.WithOrder(10)))},
		{"core.Sharded", sharded},
		{"flowtable.HashList", filtering.AsBatch(flowtable.NewHashList())},
		{"flowtable.AVLTable", filtering.AsBatch(flowtable.NewAVLTable())},
		{"flowtable.MapTable", filtering.AsBatch(flowtable.NewMapTable())},
		{"flowtable.Naive", filtering.AsBatch(flowtable.NewNaive(20 * time.Second))},
		{"AsBatch-fallback", filtering.AsBatch(plainFilter{core.MustNew(core.WithOrder(10))})},
	}
	for _, fl := range flavors {
		t.Run(fl.name, func(t *testing.T) {
			if got := fl.f.ProcessBatch(nil); got != nil {
				t.Errorf("ProcessBatch(nil) = %v, want nil", got)
			}
			if got := fl.f.ProcessBatch([]packet.Packet{}); got != nil {
				t.Errorf("ProcessBatch(empty) = %v, want nil", got)
			}
			// A dirty recycled buffer must come back length-0 but with its
			// backing array intact, so a pump does not lose its buffer
			// across an idle poll.
			buf := make([]filtering.Verdict, 3, 8)
			buf[0], buf[1], buf[2] = filtering.Drop, filtering.Drop, filtering.Drop
			got := fl.f.ProcessBatchInto(nil, buf)
			if len(got) != 0 {
				t.Fatalf("ProcessBatchInto(nil, buf) has length %d, want 0", len(got))
			}
			if cap(got) != cap(buf) || &got[:1][0] != &buf[:1][0] {
				t.Errorf("ProcessBatchInto(nil, buf) lost the caller's backing array")
			}
			if got := fl.f.ProcessBatchInto([]packet.Packet{}, nil); len(got) != 0 {
				t.Errorf("ProcessBatchInto(empty, nil) has length %d, want 0", len(got))
			}
		})
	}
}
