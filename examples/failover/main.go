// Command failover demonstrates why the filter supports state snapshots:
// an edge router that restarts with an EMPTY bitmap drops every in-flight
// connection's incoming packets for up to T_e (clients see a blackout),
// while a router restored from a snapshot keeps admitting them.
//
// The demo runs the calibrated trace, "restarts" the filter midway under
// both strategies, and compares the benign drop rate in the window right
// after the restart. The warm path goes through the crash-safe
// checkpoint machinery the bfwall daemon uses — an atomic temp-file +
// fsync + rename save and the restore fallback ladder — rather than an
// in-memory buffer, so the demo exercises the real failover artifact.
package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"bitmapfilter"
	"bitmapfilter/internal/checkpoint"
	"bitmapfilter/internal/trafficgen"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "failover:", err)
		os.Exit(1)
	}
}

func run() error {
	const (
		restartAt = 2 * time.Minute
		window    = 20 * time.Second // T_e: the worst-case blackout length
	)

	coldNow, cold, err := runScenario(false, restartAt, window)
	if err != nil {
		return err
	}
	warmNow, warm, err := runScenario(true, restartAt, window)
	if err != nil {
		return err
	}

	fmt.Printf("restart at %v; incoming drop rates afterwards:\n\n", restartAt)
	fmt.Printf("                                   first 2s    next %v\n", window)
	fmt.Printf("  cold restart (empty bitmap):     %6.2f%%     %6.2f%%\n", coldNow*100, cold*100)
	fmt.Printf("  warm restart (snapshot restore): %6.2f%%     %6.2f%%\n", warmNow*100, warm*100)
	fmt.Println("\nthe snapshot preserves every live mark, so the restored filter")
	fmt.Println("keeps admitting in-flight connections instead of blacking them out")
	return nil
}

// runScenario replays the trace through a filter, swaps the filter at
// restartAt (optionally carrying state over via a snapshot), and returns
// the incoming drop rates during the first two seconds (where every reply
// belongs to a pre-restart request) and during the full post-restart
// window.
func runScenario(withSnapshot bool, restartAt, window time.Duration) (float64, float64, error) {
	cfg := trafficgen.DefaultConfig()
	cfg.Duration = restartAt + window
	cfg.ConnRate = 25
	gen, err := trafficgen.NewGenerator(cfg)
	if err != nil {
		return 0, 0, err
	}

	filter, err := bitmapfilter.New(bitmapfilter.WithOrder(16))
	if err != nil {
		return 0, 0, err
	}

	var (
		restarted          bool
		inAfter, dropped   uint64
		inEarly, dropEarly uint64
	)
	for {
		pkt, ok := gen.Next()
		if !ok {
			break
		}
		if !restarted && pkt.Time >= restartAt {
			restarted = true
			if withSnapshot {
				// The failing router checkpointed its state to disk
				// (atomically: temp file, fsync, rename); the standby
				// walks the restore ladder and picks it up.
				dir, derr := os.MkdirTemp("", "failover")
				if derr != nil {
					return 0, 0, derr
				}
				defer os.RemoveAll(dir)
				path := filepath.Join(dir, "state.bmf")
				if _, err := checkpoint.Save(path, filter.WriteSnapshot); err != nil {
					return 0, 0, err
				}
				res := checkpoint.Restore(path, func(r io.Reader) error {
					filter, err = bitmapfilter.ReadSnapshot(r)
					return err
				})
				if !res.Outcome.Restored() {
					return 0, 0, fmt.Errorf("restore failed: %+v", res)
				}
			} else {
				// Cold start: the standby comes up empty.
				filter, err = bitmapfilter.New(bitmapfilter.WithOrder(16))
			}
			if err != nil {
				return 0, 0, err
			}
		}
		v := filter.Process(pkt)
		if restarted && pkt.Dir == bitmapfilter.Incoming {
			inAfter++
			if v == bitmapfilter.Drop {
				dropped++
			}
			if pkt.Time < restartAt+2*time.Second {
				inEarly++
				if v == bitmapfilter.Drop {
					dropEarly++
				}
			}
		}
	}
	if inAfter == 0 || inEarly == 0 {
		return 0, 0, fmt.Errorf("no incoming packets after restart")
	}
	return float64(dropEarly) / float64(inEarly), float64(dropped) / float64(inAfter), nil
}
