package bitmapfilter_test

import (
	"testing"
	"time"

	"bitmapfilter"
)

// TestPublicAPIRoundTrip exercises the package through its public surface
// only, the way a downstream user would.
func TestPublicAPIRoundTrip(t *testing.T) {
	f, err := bitmapfilter.New(
		bitmapfilter.WithOrder(14),
		bitmapfilter.WithVectors(4),
		bitmapfilter.WithHashes(3),
		bitmapfilter.WithRotateEvery(5*time.Second),
		bitmapfilter.WithSeed(7),
	)
	if err != nil {
		t.Fatal(err)
	}

	client := bitmapfilter.AddrFrom4(10, 0, 0, 1)
	server := bitmapfilter.AddrFrom4(198, 51, 100, 7)
	out := bitmapfilter.Packet{
		Tuple: bitmapfilter.Tuple{
			Src: client, Dst: server,
			SrcPort: 40000, DstPort: 443,
			Proto: bitmapfilter.TCP,
		},
		Dir:   bitmapfilter.Outgoing,
		Flags: bitmapfilter.SYN,
	}
	if v := f.Process(out); v != bitmapfilter.Pass {
		t.Fatal("outgoing dropped")
	}
	reply := bitmapfilter.Packet{
		Time:  time.Second,
		Tuple: out.Tuple.Reverse(),
		Dir:   bitmapfilter.Incoming,
		Flags: bitmapfilter.SYN | bitmapfilter.ACK,
	}
	if v := f.Process(reply); v != bitmapfilter.Pass {
		t.Error("reply dropped")
	}
	stranger := reply
	stranger.Tuple.Src = bitmapfilter.AddrFrom4(203, 0, 113, 80)
	if v := f.Process(stranger); v != bitmapfilter.Drop {
		t.Error("stranger admitted")
	}
	if f.MemoryBytes() != 4*(1<<14)/8 {
		t.Errorf("MemoryBytes = %d", f.MemoryBytes())
	}
	if f.ExpiryTimer() != 20*time.Second {
		t.Errorf("ExpiryTimer = %v", f.ExpiryTimer())
	}
}

func TestPublicAPIDefaultsMatchPaper(t *testing.T) {
	f, err := bitmapfilter.New()
	if err != nil {
		t.Fatal(err)
	}
	if f.MemoryBytes() != 512*1024 {
		t.Errorf("default memory = %d, want 512 KiB", f.MemoryBytes())
	}
}

func TestPublicAPIAPDPolicies(t *testing.T) {
	bw, err := bitmapfilter.NewBandwidthPolicy(1e6, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ratio, err := bitmapfilter.NewRatioPolicy(1, 3, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []bitmapfilter.DropPolicy{bw, ratio} {
		if _, err := bitmapfilter.New(bitmapfilter.WithAPD(policy), bitmapfilter.WithOrder(12)); err != nil {
			t.Errorf("WithAPD(%s): %v", policy.Name(), err)
		}
	}
}

func TestPublicAPIPrefix(t *testing.T) {
	p := bitmapfilter.PrefixFrom(bitmapfilter.AddrFrom4(10, 10, 0, 99), 24)
	if !p.Contains(bitmapfilter.AddrFrom4(10, 10, 0, 1)) {
		t.Error("prefix broken")
	}
}
