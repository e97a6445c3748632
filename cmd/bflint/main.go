// Command bflint runs the repository's custom static-analysis suite:
// the analyzers that enforce invariants generic tooling cannot check —
// see internal/lint for the rule catalogue and the //bf: annotation
// language.
//
// Usage:
//
//	bflint [-list] [-run names] [-tags list] [-json] [-stale-allows] [packages]
//
// Packages default to ./... relative to the enclosing module. The exit
// status is 1 when any diagnostic is reported, so `go run ./cmd/bflint
// ./...` gates CI exactly like vet. -json emits one JSON object per
// diagnostic (file/line/column/analyzer/message) for machine consumers
// such as the GitHub Actions problem matcher; -tags selects build tags for
// file loading; -stale-allows additionally fails on //bf:allow markers
// that no longer suppress anything or name no analyzer of the suite.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/build"
	"os"
	"strings"

	"bitmapfilter/internal/lint"
)

// jsonDiag is the machine-readable diagnostic shape for -json output.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	listOnly := flag.Bool("list", false, "list the analyzers in the suite and exit")
	only := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	tags := flag.String("tags", "", "comma-separated build tags (selects the files analyzed)")
	asJSON := flag.Bool("json", false, "emit diagnostics as JSON objects, one per line")
	staleAllows := flag.Bool("stale-allows", false, "also fail on //bf:allow markers that suppress nothing or name no analyzer")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: bflint [-list] [-run names] [-tags list] [-json] [-stale-allows] [packages]\n\n")
		fmt.Fprintf(os.Stderr, "Runs the bitmapfilter invariant suite (default packages: ./...).\n\nAnalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	if *listOnly {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := lint.Analyzers()
	byName := map[string]*lint.Analyzer{}
	for _, a := range analyzers {
		byName[a.Name] = a
	}
	if *only != "" {
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "bflint: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

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

	enc := json.NewEncoder(os.Stdout)
	emit := func(d lint.Diagnostic) {
		if *asJSON {
			enc.Encode(jsonDiag{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Column:   d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
			return
		}
		fmt.Println(d)
	}

	failed := false
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			fatal(err)
		}
		diags, allows, err := lint.CheckWithAllows(pkg, analyzers)
		if err != nil {
			fatal(err)
		}
		if *staleAllows {
			diags = append(diags, lint.StaleAllows(allows, analyzers)...)
		}
		for _, d := range diags {
			emit(d)
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
