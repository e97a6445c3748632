// Package replay drives packets from a pcap capture through a packet
// filter, closing the loop between the synthetic generator (which can
// export pcap via cmd/bftrace) and real-world captures: any trace of a
// client network can be evaluated against the bitmap filter and the SPI
// baselines offline.
//
// Direction is inferred per frame: frames whose source address lies in a
// configured client subnet are outgoing, frames whose destination lies
// inside are incoming, and frames touching no subnet are skipped (transit
// traffic the edge router would never see).
package replay

import (
	"errors"
	"fmt"
	"io"
	"time"

	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/pcap"
)

// ErrNoSubnets is returned when no client subnets are configured.
var ErrNoSubnets = errors.New("replay: no client subnets")

// Result summarizes one replay run.
type Result struct {
	// Frames is the number of pcap records read.
	Frames uint64
	// Truncated counts records whose capture stored fewer bytes than the
	// frame carried on the wire (snapLen cut them short). Decodable
	// truncated frames are replayed with their original wire length so
	// bandwidth-sensitive observers are not skewed by the snapshot.
	Truncated uint64
	// Skipped counts undecodable frames and frames not touching the
	// subnets.
	Skipped uint64
	// Outgoing/Incoming count classified packets fed to the filter.
	Outgoing uint64
	Incoming uint64
	// Passed/Dropped split the incoming packets by verdict.
	Passed  uint64
	Dropped uint64
	// FirstTime and LastTime bound the replayed capture.
	FirstTime, LastTime time.Duration
}

// DropRate returns the incoming drop fraction.
func (r Result) DropRate() float64 {
	if r.Incoming == 0 {
		return 0
	}
	return float64(r.Dropped) / float64(r.Incoming)
}

// batchSize is how many classified packets are accumulated before one
// ProcessBatchInto call. Batching is what keeps replay at filter speed:
// per-packet overheads (locks on Safe/Sharded, verdict allocation) are
// paid once per batch, and both buffers below are reused for the whole
// capture.
const batchSize = 512

// Run reads a pcap stream from src and processes every classifiable frame
// through filter, driving it through the batch data plane (filters without
// a native batch path get the generic per-packet fallback — verdicts are
// identical either way). Undecodable frames are counted, not fatal (real
// captures contain ARP, IPv6 and truncated frames). Optional observers see
// every classified packet before the filter does (e.g. the Figure 2
// trackers).
func Run(src io.Reader, filter filtering.PacketFilter, subnets []packet.Prefix, observers ...func(pkt packet.Packet)) (Result, error) {
	if len(subnets) == 0 {
		return Result{}, ErrNoSubnets
	}
	rd, err := pcap.NewReader(src)
	if err != nil {
		return Result{}, fmt.Errorf("replay: %w", err)
	}

	clients := packet.NewPrefixTable(subnets)

	var res Result
	first := true
	bf := filtering.AsBatch(filter)
	batch := make([]packet.Packet, 0, batchSize)
	verdicts := make([]filtering.Verdict, 0, batchSize)
	flush := func() {
		verdicts = bf.ProcessBatchInto(batch, verdicts)
		for i := range batch {
			if batch[i].Dir == packet.Outgoing {
				res.Outgoing++
				continue
			}
			res.Incoming++
			if verdicts[i] == filtering.Pass {
				res.Passed++
			} else {
				res.Dropped++
			}
		}
		batch = batch[:0]
	}
	frameBuf := make([]byte, pcap.DefaultSnapLen)
	for {
		rec, err := rd.ReadRecordInto(frameBuf)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			flush()
			return res, fmt.Errorf("replay: %w", err)
		}
		res.Frames++
		if rec.Truncated() {
			res.Truncated++
		}
		frame, err := packet.Decode(rec.Data)
		if err != nil {
			res.Skipped++
			continue
		}
		pkt := frame.ToPacket()
		pkt.Time = rec.Time
		if rec.Truncated() {
			// The decoder saw only the captured prefix; the filter and
			// the observers should account the frame at its wire length.
			pkt.Length = rec.OrigLen
		}
		dir, ok := clients.Classify(pkt.Tuple)
		if !ok {
			res.Skipped++
			continue
		}
		pkt.Dir = dir
		if first {
			res.FirstTime = rec.Time
			first = false
		}
		res.LastTime = rec.Time

		for _, obs := range observers {
			obs(pkt)
		}
		batch = append(batch, pkt)
		if len(batch) == batchSize {
			flush()
		}
	}
	flush()
	return res, nil
}
