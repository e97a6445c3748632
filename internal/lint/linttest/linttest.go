// Package linttest is a stdlib-only reimplementation of the
// golang.org/x/tools/go/analysis/analysistest golden-test convention:
// a testdata package is type-checked and analyzed, and every expected
// diagnostic is declared inline with a
//
//	// want "regexp"
//
// comment on the offending line (several per line are allowed:
// // want "a" "b"). The test fails on any diagnostic without a matching
// want, and on any want without a matching diagnostic — so each analyzer
// suite proves both that the rule fires on violations and that it stays
// silent on conforming code.
package linttest

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"bitmapfilter/internal/lint"
)

// sharedLoader caches type-checked stdlib dependencies across the many
// per-analyzer tests in one process; building a fresh source-importer per
// test would re-typecheck fmt/sync/io each time.
var sharedLoader *lint.Loader

func loader(t *testing.T) *lint.Loader {
	t.Helper()
	if sharedLoader == nil {
		l, err := lint.NewLoader(".")
		if err != nil {
			t.Fatalf("linttest: %v", err)
		}
		sharedLoader = l
	}
	return sharedLoader
}

// Run type-checks the package in dir under the import path asPath, runs
// the single analyzer over it, and matches diagnostics against the
// // want annotations in the testdata sources.
//
// asPath matters: wallclock and boundedalloc decide applicability from
// the package path, so testdata packages choose paths on either side of
// the allowlist (e.g. "example.com/det" vs "example.com/checkpoint").
func Run(t *testing.T, dir, asPath string, a *lint.Analyzer) {
	t.Helper()
	l := loader(t)
	pkg, err := l.LoadDir(dir, asPath)
	if err != nil {
		t.Fatalf("linttest: load %s: %v", dir, err)
	}
	diags, err := lint.Check(pkg, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}

	wants := collectWants(t, pkg)
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		if !wants.match(key, d.Message) {
			t.Errorf("unexpected diagnostic at %s: %s", key, d.Message)
		}
	}
	wants.reportUnmatched(t)
}

type wantEntry struct {
	key     string // file:line
	re      *regexp.Regexp
	raw     string
	matched bool
}

type wantSet struct{ entries []*wantEntry }

func (ws *wantSet) match(key, message string) bool {
	for _, w := range ws.entries {
		if !w.matched && w.key == key && w.re.MatchString(message) {
			w.matched = true
			return true
		}
	}
	return false
}

func (ws *wantSet) reportUnmatched(t *testing.T) {
	t.Helper()
	for _, w := range ws.entries {
		if !w.matched {
			t.Errorf("no diagnostic at %s matching %q", w.key, w.raw)
		}
	}
}

// wantRe extracts the quoted regexps from a `// want "a" "b"` comment.
var wantRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

func collectWants(t *testing.T, pkg *lint.Package) *wantSet {
	t.Helper()
	ws := &wantSet{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, m := range wantRe.FindAllStringSubmatch(rest, -1) {
					unescaped := strings.NewReplacer(`\"`, `"`, `\\`, `\`).Replace(m[1])
					re, err := regexp.Compile(unescaped)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					ws.entries = append(ws.entries, &wantEntry{
						key: fmt.Sprintf("%s:%d", pos.Filename, pos.Line),
						re:  re,
						raw: unescaped,
					})
				}
			}
		}
	}
	// Guard against silently-empty suites: a testdata package with no
	// wants at all usually means the comments were misplaced.
	if len(ws.entries) == 0 {
		ensureIntentional(t, pkg)
	}
	return ws
}

// ensureIntentional allows want-free testdata only when the package
// declares `// ok: no diagnostics expected` somewhere.
func ensureIntentional(t *testing.T, pkg *lint.Package) {
	t.Helper()
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			if strings.Contains(cg.Text(), "ok: no diagnostics expected") {
				return
			}
		}
	}
	var name string
	if len(pkg.Files) > 0 {
		name = pkg.Fset.Position(pkg.Files[0].Pos()).Filename
	}
	t.Fatalf("testdata package %s has no // want annotations and no '// ok: no diagnostics expected' marker", name)
}
