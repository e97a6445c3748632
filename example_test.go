package bitmapfilter_test

import (
	"bytes"
	"fmt"
	"time"

	"bitmapfilter"
)

// Example demonstrates the basic mark-on-outgoing / check-on-incoming
// cycle of the bitmap filter.
func Example() {
	f, err := bitmapfilter.New(bitmapfilter.WithOrder(16))
	if err != nil {
		fmt.Println("error:", err)
		return
	}

	client := bitmapfilter.AddrFrom4(10, 0, 0, 42)
	server := bitmapfilter.AddrFrom4(198, 51, 100, 7)
	request := bitmapfilter.Tuple{
		Src: client, Dst: server,
		SrcPort: 40000, DstPort: 443,
		Proto: bitmapfilter.TCP,
	}

	// The client's outgoing packet marks the bitmap.
	f.Process(bitmapfilter.Packet{Tuple: request, Dir: bitmapfilter.Outgoing})

	// The server's reply matches; a stranger's probe does not.
	reply := bitmapfilter.Packet{
		Time: time.Second, Tuple: request.Reverse(), Dir: bitmapfilter.Incoming,
	}
	probe := reply
	probe.Tuple.Src = bitmapfilter.AddrFrom4(203, 0, 113, 66)

	fmt.Println("reply:", f.Process(reply))
	fmt.Println("probe:", f.Process(probe))
	// Output:
	// reply: pass
	// probe: drop
}

// ExampleFilter_ProcessBatchInto shows the batched data plane: one call per
// packet burst, reusing the caller's verdict buffer so a steady-state stream
// allocates nothing.
func ExampleFilter_ProcessBatchInto() {
	f, err := bitmapfilter.New(bitmapfilter.WithOrder(16))
	if err != nil {
		fmt.Println("error:", err)
		return
	}

	client := bitmapfilter.AddrFrom4(10, 0, 0, 42)
	server := bitmapfilter.AddrFrom4(198, 51, 100, 7)
	request := bitmapfilter.Tuple{
		Src: client, Dst: server,
		SrcPort: 40000, DstPort: 443,
		Proto: bitmapfilter.TCP,
	}
	probe := bitmapfilter.Tuple{
		Src: bitmapfilter.AddrFrom4(203, 0, 113, 66), Dst: client,
		SrcPort: 4444, DstPort: 22,
		Proto: bitmapfilter.TCP,
	}

	// One burst, as a packet source would deliver it: the client's
	// request, the server's reply, and a stranger's probe.
	burst := []bitmapfilter.Packet{
		{Tuple: request, Dir: bitmapfilter.Outgoing},
		{Time: time.Second, Tuple: request.Reverse(), Dir: bitmapfilter.Incoming},
		{Time: time.Second, Tuple: probe, Dir: bitmapfilter.Incoming},
	}

	// Reuse one verdict buffer across batches (zero allocations at
	// steady state): the second burst, the server's next reply, lands in
	// the first burst's array.
	verdicts := make([]bitmapfilter.Verdict, 0, 64)
	verdicts = f.ProcessBatchInto(burst, verdicts)
	for i, v := range verdicts {
		fmt.Printf("packet %d: %v\n", i, v)
	}
	verdicts = f.ProcessBatchInto(burst[1:2], verdicts)
	fmt.Printf("next burst: %v (%d verdict, same buffer: %v)\n", verdicts[0], len(verdicts), cap(verdicts) == 64)
	// Output:
	// packet 0: pass
	// packet 1: pass
	// packet 2: drop
	// next burst: pass (1 verdict, same buffer: true)
}

// ExampleFilter_PunchHole shows the §5.1 hole-punching technique that
// makes active-mode-FTP-style inbound connections work.
func ExampleFilter_PunchHole() {
	f, err := bitmapfilter.New(bitmapfilter.WithOrder(16))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	client := bitmapfilter.AddrFrom4(10, 0, 0, 42)
	server := bitmapfilter.AddrFrom4(198, 51, 100, 7)

	// The server's active data connection toward client:20000 would be
	// dropped — until the client punches the hole.
	f.PunchHole(client, 20000, server, bitmapfilter.TCP)

	data := bitmapfilter.Packet{
		Tuple: bitmapfilter.Tuple{
			Src: server, Dst: client,
			SrcPort: 20, DstPort: 20000,
			Proto: bitmapfilter.TCP,
		},
		Dir:   bitmapfilter.Incoming,
		Flags: bitmapfilter.SYN,
	}
	fmt.Println("active data connection:", f.Process(data))
	// Output:
	// active data connection: pass
}

// ExampleReadSnapshot shows persisting filter state across a restart.
func ExampleReadSnapshot() {
	f, err := bitmapfilter.New(bitmapfilter.WithOrder(16))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	tup := bitmapfilter.Tuple{
		Src: bitmapfilter.AddrFrom4(10, 0, 0, 1), Dst: bitmapfilter.AddrFrom4(198, 51, 100, 7),
		SrcPort: 4000, DstPort: 80, Proto: bitmapfilter.TCP,
	}
	f.Process(bitmapfilter.Packet{Tuple: tup, Dir: bitmapfilter.Outgoing})

	var state bytes.Buffer
	if err := f.WriteSnapshot(&state); err != nil {
		fmt.Println("error:", err)
		return
	}

	restored, err := bitmapfilter.ReadSnapshot(&state)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	reply := bitmapfilter.Packet{
		Time: time.Second, Tuple: tup.Reverse(), Dir: bitmapfilter.Incoming,
	}
	fmt.Println("after restore:", restored.Process(reply))
	// Output:
	// after restore: pass
}
