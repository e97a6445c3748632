// Command bfbench reproduces Table 1 — the storage and per-operation cost
// comparison of the bitmap filter against the hash+linked-list
// (Linux-conntrack-style) and AVL-tree SPI tables.
//
// Usage:
//
//	bfbench [-conns 2560000] [-seed 1]
//
// The default connection count is the paper's 2.56 M scenario; use a
// smaller -conns for quick runs. The wire-to-verdict performance ledger is
// `go run ./bench`, not this command.
package main

import (
	"flag"
	"fmt"
	"os"

	"bitmapfilter/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		conns = flag.Int("conns", experiments.Table1Connections, "concurrent connections to load")
		seed  = flag.Uint64("seed", 1, "random seed")
	)
	flag.Parse()

	res, err := experiments.RunTable1(*conns, *seed)
	if err != nil {
		return err
	}
	fmt.Print(res.Format())
	fmt.Println("\ncomplexity columns (from the paper):")
	for _, row := range res.Rows {
		fmt.Printf("  %-24s insert %-10s lookup %-12s gc %s\n",
			row.Name, row.InsertComplexity, row.LookupComplexity, row.GCComplexity)
	}
	return nil
}
