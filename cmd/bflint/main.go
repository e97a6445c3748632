// Command bflint runs the repository's custom static-analysis suite:
// the analyzers that enforce invariants generic tooling cannot check —
// see internal/lint for the rule catalogue and the //bf: annotation
// language.
//
// Usage:
//
//	bflint [-tags list] [packages]
//
// Packages default to ./... relative to the enclosing module. Each
// diagnostic prints as file:line:col: analyzer: message, and the exit
// status is 1 when there is any, so `go run ./cmd/bflint ./...` gates CI
// exactly like vet. Besides the analyzers' findings, every //bf:allow
// marker that suppresses nothing or names no analyzer of the suite is
// reported (staleallow). -tags selects build tags for file loading.
package main

import (
	"flag"
	"fmt"
	"go/build"
	"os"
	"strings"

	"bitmapfilter/internal/lint"
)

func main() {
	tags := flag.String("tags", "", "comma-separated build tags (selects the files analyzed)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: bflint [-tags list] [packages]\n\n")
		fmt.Fprintf(os.Stderr, "Runs the bitmapfilter invariant suite (default packages: ./...).\n\nAnalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(os.Stderr, "\nEvery run also reports each //bf:allow marker that suppresses nothing\nor names none of these analyzers (staleallow).\n")
	}
	flag.Parse()

	if *tags != "" {
		// The loader matches files against build.Default.
		build.Default.BuildTags = strings.Split(*tags, ",")
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	loader, err := lint.NewLoader(cwd)
	if err != nil {
		fatal(err)
	}
	paths, err := loader.Expand(patterns)
	if err != nil {
		fatal(err)
	}

	failed := false
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			fatal(err)
		}
		diags, err := lint.Check(pkg, lint.Analyzers())
		if err != nil {
			fatal(err)
		}
		for _, d := range diags {
			fmt.Println(d)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bflint: %v\n", err)
	os.Exit(2)
}
