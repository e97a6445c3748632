// Command bfexp runs the paper's offline experiments, one subcommand each
// (EXPERIMENTS.md records what they print):
//
//	trace      Figure 2 trace statistics, E1–E3 (-pcap also writes the trace)
//	capacity   §4.1 capacity table, Equations 1–5 (E4)
//	table1     Table 1 storage and cost comparison (E5)
//	fig4       Figure 4 drop rates, SPI vs bitmap (E6)
//	fig5       Figure 5 random-scan attack mix (E7–E8)
//	insider    §5.2 insider-attack sweep (E9)
//	apd        §5.3 adaptive packet dropping (E10)
//	bandwidth  bottleneck-link bandwidth attack (E10b)
//	worm       worm containment (E13)
//	collude    §5.4 colluding attackers (E14)
//	ablate     behavioural ablations of the design choices (DESIGN.md §5)
//	plan       §3.4 parameter planner, validated by simulation
//	replay     a pcap capture evaluated against the bitmap or an SPI filter
//
// Usage:
//
//	bfexp <name> [flags]
//	bfexp <name> -h      # the subcommand's flags
//
// Where an experiment has a Default*Config, its subcommand's flags are
// bound to that config's fields and default to what it holds, so the
// subcommand at default flags runs exactly that configuration.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"bitmapfilter/internal/asciiplot"
	"bitmapfilter/internal/core"
	"bitmapfilter/internal/experiments"
	"bitmapfilter/internal/model"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/pcap"
	"bitmapfilter/internal/trafficgen"
	"bitmapfilter/internal/xrand"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bfexp:", err)
		os.Exit(1)
	}
}

// command is one subcommand: flags declares its flags on fs and returns the
// body, which runs once fs has parsed them.
type command struct {
	name  string
	flags func(fs *flag.FlagSet, out io.Writer) func() error
}

// run picks the subcommand args[0] names, parses the rest of args as its
// flags and runs it, printing to out.
func run(args []string, out io.Writer) error {
	names := make([]string, len(commands))
	for i, c := range commands {
		names[i] = c.name
		if len(args) == 0 || c.name != args[0] {
			continue
		}
		fs := flag.NewFlagSet("bfexp "+c.name, flag.ContinueOnError)
		body := c.flags(fs, out)
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		if fs.NArg() > 0 {
			return fmt.Errorf("%s: unexpected argument %q", c.name, fs.Arg(0))
		}
		return body()
	}
	return fmt.Errorf("usage: bfexp <name> [flags], name one of: %s", strings.Join(names, ", "))
}

// scaleFlags binds -duration, -rate and -seed to s, defaulting to what s
// holds.
func scaleFlags(fs *flag.FlagSet, s *experiments.Scale) {
	fs.DurationVar(&s.Duration, "duration", s.Duration, "trace duration")
	fs.Float64Var(&s.ConnRate, "rate", s.ConnRate, "session arrival rate per second")
	fs.Uint64Var(&s.Seed, "seed", s.Seed, "random seed")
}

// show prints an experiment's result, or returns the error that kept it
// from running.
func show(out io.Writer, res interface{ Format() string }, err error) error {
	if err != nil {
		return err
	}
	_, err = io.WriteString(out, res.Format())
	return err
}

var commands = []command{
	{"trace", func(fs *flag.FlagSet, out io.Writer) func() error {
		scale := experiments.DefaultScale()
		scaleFlags(fs, &scale)
		pcapPath := fs.String("pcap", "", "also write the trace to this pcap file")
		hist := fs.Bool("hist", false, "print the delay histogram tail (Figure 2-b)")
		profile := fs.String("profile", "campus", "client-network archetype: campus, enterprise, dsl, wireless")
		return func() error {
			var err error
			if scale.Profile, err = trafficgen.ParseProfile(*profile); err != nil {
				return err
			}
			if *pcapPath != "" {
				if err := writePcap(*pcapPath, scale); err != nil {
					return err
				}
				fmt.Fprintf(out, "wrote %s\n\n", *pcapPath)
			}
			res, err := experiments.RunFig2(scale)
			if err := show(out, res, err); err != nil {
				return err
			}
			if *hist {
				fmt.Fprintln(out, "\nFigure 2-b delay histogram tail (>20s, 1s bins):")
				for bin := 21; bin < res.DelayHist.Bins() && bin < 300; bin++ {
					if c := res.DelayHist.Count(bin); c > 0 {
						fmt.Fprintf(out, "  %4ds %6d %s\n", bin, c, strings.Repeat("#", int(min(c, 50))))
					}
				}
			}
			return nil
		}
	}},
	{"capacity", func(fs *flag.FlagSet, out io.Writer) func() error {
		return func() error {
			res, err := experiments.RunCapacity()
			return show(out, res, err)
		}
	}},
	{"table1", func(fs *flag.FlagSet, out io.Writer) func() error {
		conns := fs.Int("conns", experiments.Table1Connections, "concurrent connections to load")
		seed := fs.Uint64("seed", 1, "random seed")
		return func() error {
			res, err := experiments.RunTable1(*conns, *seed)
			if err := show(out, res, err); err != nil {
				return err
			}
			fmt.Fprintln(out, "\ncomplexity columns (from the paper):")
			for _, row := range res.Rows {
				fmt.Fprintf(out, "  %-24s insert %-10s lookup %-12s gc %s\n",
					row.Name, row.InsertComplexity, row.LookupComplexity, row.GCComplexity)
			}
			return nil
		}
	}},
	{"fig4", func(fs *flag.FlagSet, out io.Writer) func() error {
		cfg := experiments.DefaultFig4Config()
		scaleFlags(fs, &cfg.Scale)
		fs.Float64Var(&cfg.IntervalSec, "interval", cfg.IntervalSec, "scatter interval in seconds")
		points := fs.Bool("points", false, "print every scatter point (SPI vs bitmap drop rate)")
		plot := fs.Bool("plot", false, "render the Figure 4 scatter as an ASCII chart")
		fs.UintVar(&cfg.Order, "order", cfg.Order, "bitmap order n (2^n bits per vector)")
		fs.IntVar(&cfg.Vectors, "vectors", cfg.Vectors, "bitmap vector count k")
		fs.IntVar(&cfg.Hashes, "hashes", cfg.Hashes, "hash function count m")
		fs.DurationVar(&cfg.RotateEvery, "rotate", cfg.RotateEvery, "rotation period Δt")
		fs.DurationVar(&cfg.SPITimeout, "spi-idle", cfg.SPITimeout, "SPI idle timeout")
		return func() error {
			res, err := experiments.RunFig4(cfg)
			if err := show(out, res, err); err != nil {
				return err
			}
			if *plot {
				xs := make([]float64, res.Scatter.N())
				ys := make([]float64, res.Scatter.N())
				for i := range xs {
					xs[i], ys[i] = res.Scatter.Point(i)
				}
				fmt.Fprintln(out, "\nFigure 4 scatter (x=SPI drop rate, y=bitmap drop rate):")
				fmt.Fprint(out, asciiplot.Scatter(xs, ys, 60, 20))
			}
			if *points {
				fmt.Fprintln(out, "\nscatter points (spi_drop_rate bitmap_drop_rate):")
				for i := 0; i < res.Scatter.N(); i++ {
					x, y := res.Scatter.Point(i)
					fmt.Fprintf(out, "  %.5f %.5f\n", x, y)
				}
			}
			return nil
		}
	}},
	{"fig5", func(fs *flag.FlagSet, out io.Writer) func() error {
		cfg := experiments.DefaultFig5Config()
		scaleFlags(fs, &cfg.Scale)
		fs.Float64Var(&cfg.AttackRateMultiplier, "mult", cfg.AttackRateMultiplier, "attack rate as a multiple of the benign packet rate")
		fs.Float64Var(&cfg.AttackStartFraction, "start", cfg.AttackStartFraction, "attack start as a fraction of the trace")
		fs.UintVar(&cfg.Order, "order", cfg.Order, "bitmap order n; shrink to match the paper's utilization at reduced trace scale")
		series := fs.Bool("series", false, "print the Figure 5-a time series")
		plot := fs.Bool("plot", false, "render the Figure 5-a series as an ASCII chart")
		return func() error {
			res, err := experiments.RunFig5(cfg)
			if err := show(out, res, err); err != nil {
				return err
			}
			n := res.Normal.Len()
			if *plot {
				normal := make([]float64, n)
				atk := make([]float64, n)
				passed := make([]float64, n)
				for i := 0; i < n; i++ {
					normal[i], atk[i], passed[i] = res.Normal.At(i), res.Attack.At(i), res.Passed.At(i)
				}
				fmt.Fprintln(out, "\nFigure 5-a (n=benign incoming, a=attack, p=passed):")
				fmt.Fprint(out, asciiplot.Lines([]string{"normal", "attack", "passed"},
					[][]float64{normal, atk, passed}, 72, 18))
			}
			if *series {
				fmt.Fprintln(out, "\nFigure 5-a series (t, normal_in, attack, passed):")
				for i := 0; i < n; i++ {
					fmt.Fprintf(out, "  %5.0f %8.0f %9.0f %8.0f\n",
						res.Normal.BucketStart(i), res.Normal.At(i), res.Attack.At(i), res.Passed.At(i))
				}
			}
			return nil
		}
	}},
	{"insider", func(fs *flag.FlagSet, out io.Writer) func() error {
		cfg := experiments.DefaultInsiderConfig()
		fs.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "random seed")
		fs.Func("rates", "comma-separated flood rates to sweep, packets/second", func(s string) (err error) {
			cfg.Rates, err = parseRates(s)
			return err
		})
		return func() error {
			res, err := experiments.RunInsider(cfg)
			return show(out, res, err)
		}
	}},
	{"apd", func(fs *flag.FlagSet, out io.Writer) func() error {
		cfg := experiments.DefaultAPDConfig()
		fs.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "random seed")
		fs.Float64Var(&cfg.ScanRate, "scanrate", cfg.ScanRate, "scan rate (probes/s)")
		return func() error {
			res, err := experiments.RunAPD(cfg)
			return show(out, res, err)
		}
	}},
	{"bandwidth", func(fs *flag.FlagSet, out io.Writer) func() error {
		cfg := experiments.DefaultBandwidthConfig()
		fs.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "random seed")
		return func() error {
			res, err := experiments.RunBandwidth(cfg)
			return show(out, res, err)
		}
	}},
	{"worm", func(fs *flag.FlagSet, out io.Writer) func() error {
		cfg := experiments.DefaultWormConfig()
		fs.DurationVar(&cfg.Duration, "duration", cfg.Duration, "epidemic duration")
		fs.Float64Var(&cfg.ScanRate, "scanrate", cfg.ScanRate, "probes per second per infected host")
		fs.IntVar(&cfg.VulnerableHosts, "vulnerable", cfg.VulnerableHosts, "vulnerable hosts inside each network")
		fs.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "random seed")
		series := fs.Bool("series", false, "print the inside-infection time series")
		return func() error {
			res, err := experiments.RunWorm(cfg)
			if err := show(out, res, err); err != nil {
				return err
			}
			if *series {
				fmt.Fprintln(out, "\ninside infections over time (t, unprotected, protected):")
				ts := res.Unprotected.InfectedSeries
				for i := 0; i < ts.Len(); i++ {
					u, p := ts.At(i), res.Protected.InfectedSeries.At(i)
					if u != 0 || p != 0 {
						fmt.Fprintf(out, "  %5.0fs %5.0f %5.0f\n", ts.BucketStart(i), u, p)
					}
				}
			}
			return nil
		}
	}},
	{"collude", func(fs *flag.FlagSet, out io.Writer) func() error {
		cfg := experiments.DefaultCollusionConfig()
		scaleFlags(fs, &cfg.Scale)
		fs.Float64Var(&cfg.SnoopFraction, "snoop", cfg.SnoopFraction, "fraction of outgoing tuples sniffed")
		return func() error {
			res, err := experiments.RunCollusion(cfg)
			return show(out, res, err)
		}
	}},
	{"ablate", func(fs *flag.FlagSet, out io.Writer) func() error {
		cfg := experiments.DefaultAblationConfig()
		scaleFlags(fs, &cfg.Scale)
		return func() error {
			res, err := experiments.RunAblations(cfg)
			return show(out, res, err)
		}
	}},
	{"plan", func(fs *flag.FlagSet, out io.Writer) func() error {
		in := model.PlanInput{
			ActiveConnections: 15000,
			TargetPenetration: 0.05,
			ExpiryTimer:       20 * time.Second,
			RotateEvery:       5 * time.Second,
		}
		fs.Float64Var(&in.ActiveConnections, "conns", in.ActiveConnections, "expected active connections per T_e window")
		fs.Float64Var(&in.TargetPenetration, "p", in.TargetPenetration, "target penetration probability")
		fs.DurationVar(&in.ExpiryTimer, "te", in.ExpiryTimer, "expiry timer T_e")
		fs.DurationVar(&in.RotateEvery, "dt", in.RotateEvery, "rotation period Δt")
		fs.Uint64Var(&in.MaxMemoryBytes, "maxmem", in.MaxMemoryBytes, "memory cap in bytes (0 = unlimited)")
		seed := fs.Uint64("seed", 1, "random seed")
		return func() error { return plan(out, in, *seed) }
	}},
	{"replay", replayFlags},
}

// plan prints the §3.4 recommendation and validates it by simulation: the
// planned filter is loaded with the expected connections and probed with
// random tuples.
func plan(out io.Writer, in model.PlanInput, seed uint64) error {
	p, err := model.PlanFor(in)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "recommended:", p)

	f, err := core.New(
		core.WithOrder(p.Order),
		core.WithVectors(p.Vectors),
		core.WithHashes(p.Hashes),
		core.WithRotateEvery(p.RotateEvery),
		core.WithSeed(seed),
	)
	if err != nil {
		return err
	}
	r := xrand.New(seed)
	client := packet.AddrFrom4(10, 10, 0, 1)
	for i := 0; i < int(in.ActiveConnections); i++ {
		f.Process(packet.Packet{
			Tuple: packet.Tuple{
				Src: client, Dst: packet.Addr(r.Uint32() | 1),
				SrcPort: uint16(1024 + i%60000), DstPort: 80, Proto: packet.TCP,
			},
			Dir: packet.Outgoing, Flags: packet.ACK,
		})
	}
	const probes = 500000
	hits := 0
	for i := 0; i < probes; i++ {
		tup := packet.Tuple{
			Src: packet.Addr(r.Uint32() | 1), Dst: client,
			SrcPort: uint16(1 + r.Intn(65535)), DstPort: uint16(1 + r.Intn(65535)),
			Proto: packet.TCP,
		}
		if f.WouldAdmit(tup) {
			hits++
		}
	}
	measured := float64(hits) / probes
	fmt.Fprintf(out, "validated:   measured penetration %.3e over %d probes (target %.0e, Eq.2 predicts %.3e)\n",
		measured, probes, in.TargetPenetration, p.PredictedPenetration)
	if measured > in.TargetPenetration {
		fmt.Fprintln(out, "warning: measured penetration exceeds the target; consider one order larger")
	}
	return nil
}

func parseRates(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	rates := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("parse rate %q: %w", p, err)
		}
		if v <= 0 {
			return nil, fmt.Errorf("rate %v must be positive", v)
		}
		rates = append(rates, v)
	}
	return rates, nil
}

// writePcap encodes the trace to the libpcap format.
func writePcap(path string, scale experiments.Scale) error {
	gen, err := trafficgen.NewGenerator(scale.TraceConfig())
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // for the error paths; success returns Close's error
	w, err := pcap.NewWriter(f)
	if err != nil {
		return err
	}
	var encodeErr error
	gen.Drain(func(pkt packet.Packet) {
		if encodeErr != nil {
			return
		}
		frame, err := packet.Encode(pkt)
		if err != nil {
			encodeErr = err
			return
		}
		if err := w.WriteRecord(pcap.Record{Time: pkt.Time, Data: frame}); err != nil {
			encodeErr = err
		}
	})
	if encodeErr != nil {
		return encodeErr
	}
	return f.Close()
}
