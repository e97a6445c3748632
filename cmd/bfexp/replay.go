package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	"bitmapfilter/internal/capture"
	"bitmapfilter/internal/core"
	"bitmapfilter/internal/delaymeter"
	"bitmapfilter/internal/experiments"
	"bitmapfilter/internal/filtering"
	"bitmapfilter/internal/flowtable"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/pump"
	"bitmapfilter/internal/stats"
	"bitmapfilter/internal/trafficgen"
)

// replayFlags is `bfexp replay`: it evaluates a pcap capture against a
// packet filter. Every frame is classified as outgoing or incoming relative
// to the client subnets and run through the selected filter, and the
// verdict statistics are printed. `bfexp trace -pcap` writes a synthetic
// capture; a real one works as well.
//
// It is the offline caller of the wire path bfwall runs (internal/pump):
// the capture is loaded whole and replayed once, undecodable frames and
// frames touching no client subnet are counted and skipped, and a record
// the snapshot length cut short is judged at its wire length.
func replayFlags(fs *flag.FlagSet, out io.Writer) func() error {
	var (
		inPath     = fs.String("in", "", "pcap file to replay (required)")
		filterName = fs.String("filter", "bitmap", "filter to evaluate: bitmap or spi")
		subnetsCSV = fs.String("subnets", "", "comma-separated client CIDRs (default: the generator's campus subnets)")
		order      = fs.Uint("order", 20, "bitmap order n")
		vectors    = fs.Int("vectors", 4, "bitmap vector count k")
		hashes     = fs.Int("hashes", 3, "hash count m")
		statsFlag  = fs.Bool("stats", false, "also compute Figure 2 trace statistics for the capture")
	)
	return func() error {
		if *inPath == "" {
			return fmt.Errorf("-in is required")
		}

		subnets := trafficgen.CampusSubnets()
		if *subnetsCSV != "" {
			parsed, err := parseSubnets(*subnetsCSV)
			if err != nil {
				return err
			}
			subnets = parsed
		}

		var filter filtering.PacketFilter
		switch *filterName {
		case "bitmap":
			f, err := core.New(
				core.WithOrder(*order),
				core.WithVectors(*vectors),
				core.WithHashes(*hashes),
			)
			if err != nil {
				return err
			}
			filter = f
		case "spi":
			filter = flowtable.NewHashList()
		default:
			return fmt.Errorf("unknown filter %q (want bitmap or spi)", *filterName)
		}

		// Mapped where it can be, read where it cannot, as bfwall loads its
		// -pcap; unmapped once the pump is done with it.
		trace, err := capture.OpenTrace(*inPath)
		if err != nil {
			return err
		}
		defer trace.Close()
		src, err := capture.NewReplayBytes(trace.Bytes(), 1)
		if err != nil {
			return err
		}

		s, obs, err := replay(src, filter, subnets, *statsFlag)
		if err != nil {
			return err
		}

		fmt.Fprintf(out, "capture:   %s (%v .. %v)\n", *inPath, obs.first, obs.last)
		fmt.Fprintf(out, "filter:    %s (%d bytes of state)\n", filter.Name(), filter.MemoryBytes())
		// Skipped: undecodable, or touching no client subnet.
		fmt.Fprintf(out, "frames:    %d (%d skipped)\n", s.Frames, s.Frames-s.Outgoing-s.Incoming)
		fmt.Fprintf(out, "outgoing:  %d\n", s.Outgoing)
		fmt.Fprintf(out, "incoming:  %d  passed %d  dropped %d  (drop rate %.3f%%)\n",
			s.Incoming, s.Passed, s.Dropped, s.Counters.DropRate()*100)
		if *statsFlag {
			fmt.Fprintf(out, "lifetimes: %d connections, q90 %.1fs, q95 %.1fs, >515s %.3f%%\n",
				obs.lives.Count(), obs.lives.Quantile(0.90), obs.lives.Quantile(0.95),
				obs.lives.FractionOver(515)*100)
			fmt.Fprintf(out, "delays:    %d measured, q95 %.2fs, q99 %.2fs\n",
				obs.delays.N(), obs.delays.Quantile(0.95), obs.delays.Quantile(0.99))
		}
		return nil
	}
}

// replay is the evaluation itself: one pass of src through the pump into
// filter, direction by subnets. It returns the pump's tallies and the
// observer the filter was judged through; figure2 turns its trackers on.
func replay(src capture.Source, filter filtering.PacketFilter, subnets []packet.Prefix, figure2 bool) (pump.Snapshot, *observer, error) {
	obs := &observer{BatchFilter: filtering.AsBatch(filter)}
	if figure2 {
		obs.lives = experiments.NewLifetimeTracker()
		obs.meter = delaymeter.MustNew(delaymeter.DefaultExpiry)
	}
	p := pump.New(pump.Config{Source: src, Filter: obs, Subnets: subnets, Batch: 512})
	if err := p.Run(); err != nil {
		return pump.Snapshot{}, nil, err
	}
	return p.Snapshot(), obs, nil
}

// observer is the filter the pump judges through: the chosen filter, plus
// what replay reports that the pump does not count. The pump commits
// batches in capture order, one at a time, so ProcessBatchInto sees every
// classified packet exactly as a single loop over the capture would, just
// before the filter does — and needs no lock of its own.
type observer struct {
	filtering.BatchFilter

	// The capture's bounds: timestamps of the first and last judged packet.
	first, last time.Duration
	judged      bool

	// The Figure 2 trackers; nil without -stats.
	lives  *experiments.LifetimeTracker
	meter  *delaymeter.Meter
	delays stats.Sample
}

func (o *observer) ProcessBatchInto(pkts []packet.Packet, out []filtering.Verdict) []filtering.Verdict {
	if len(pkts) > 0 {
		if !o.judged {
			o.first, o.judged = pkts[0].Time, true
		}
		o.last = pkts[len(pkts)-1].Time
	}
	if o.lives != nil {
		for i := range pkts {
			o.lives.Observe(pkts[i])
			if d, ok := o.meter.Observe(pkts[i]); ok {
				o.delays.Add(d.Seconds())
			}
		}
	}
	return o.BatchFilter.ProcessBatchInto(pkts, out)
}

func parseSubnets(csv string) ([]packet.Prefix, error) {
	out, err := packet.ParsePrefixes(csv)
	if err != nil {
		return nil, fmt.Errorf("-subnets: %w", err)
	}
	return out, nil
}
