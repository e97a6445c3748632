// Command ftp_holepunch demonstrates the §5.1 compatibility story
// (experiment E11). Active-mode FTP separates the command and data
// channels: the client opens the command connection, but the *server*
// opens the data connection back to a client port. A bitmap filter drops
// such server-initiated connections — unless the client first "punches a
// hole" by sending one packet with the tuple {client, dataPort, server, x},
// which marks the bitmap exactly like any outgoing packet and admits the
// server's inbound connection until the marks expire.
//
// The demo plays the exchange twice through the filter on the client's
// edge, with explicit virtual times: once without the hole punch (the data
// connection dies at the edge router) and once with it (the transfer
// succeeds).
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"bitmapfilter"
)

const (
	ctrlPort   = 21
	dataSrc    = 20 // active-mode FTP data connections originate from port 20
	clientData = 18765
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ftp_holepunch:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	for _, punch := range []bool{false, true} {
		delivered, err := scenario(punch)
		if err != nil {
			return err
		}
		status := "FAILED (dropped at edge router)"
		if delivered {
			status = "succeeded"
		}
		fmt.Fprintf(w, "hole punch %-5v: active data connection %s\n", punch, status)
	}
	return nil
}

// scenario plays one active-mode FTP exchange through the edge filter and
// reports whether the server's data connection reached the client. The
// server is 10 ms away, so a reply arrives 20 ms after the packet it
// answers; the client answers 0.2 ms after a packet arrives, and the server
// opens the data connection 20 ms after it reads PORT.
func scenario(punch bool) (bool, error) {
	filter, err := bitmapfilter.New(
		bitmapfilter.WithOrder(14),
		bitmapfilter.WithVectors(4),
		bitmapfilter.WithHashes(3),
		bitmapfilter.WithRotateEvery(5*time.Second),
	)
	if err != nil {
		return false, err
	}
	client := bitmapfilter.AddrFrom4(10, 10, 0, 5)
	server := bitmapfilter.AddrFrom4(198, 51, 100, 21)
	ctrl := bitmapfilter.Tuple{Src: client, Dst: server, SrcPort: 41000, DstPort: ctrlPort, Proto: bitmapfilter.TCP}

	// The client opens the control connection; the server accepts it.
	filter.Process(bitmapfilter.Packet{Time: 0, Dir: bitmapfilter.Outgoing, Tuple: ctrl,
		Flags: bitmapfilter.SYN, Length: 60})
	filter.Process(bitmapfilter.Packet{Time: 20 * time.Millisecond, Dir: bitmapfilter.Incoming, Tuple: ctrl.Reverse(),
		Flags: bitmapfilter.SYN | bitmapfilter.ACK, Length: 60})
	// PORT h,p (the command itself is abstract) announces the data port.
	filter.Process(bitmapfilter.Packet{Time: 20200 * time.Microsecond, Dir: bitmapfilter.Outgoing, Tuple: ctrl,
		Flags: bitmapfilter.PSH | bitmapfilter.ACK, Length: 120})
	if punch {
		// §5.1: "the client can send a TCP or UDP packet with the
		// address tuple {c, p, s, x}".
		filter.PunchHole(client, clientData, server, bitmapfilter.TCP)
	}
	// The server's active data connection, from port 20 to the announced
	// port.
	v := filter.Process(bitmapfilter.Packet{Time: 70200 * time.Microsecond, Dir: bitmapfilter.Incoming,
		Tuple: bitmapfilter.Tuple{Src: server, Dst: client, SrcPort: dataSrc, DstPort: clientData, Proto: bitmapfilter.TCP},
		Flags: bitmapfilter.SYN, Length: 60})
	return v == bitmapfilter.Pass, nil
}
