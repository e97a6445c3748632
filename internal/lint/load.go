package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string // import path
	Fset  *token.FileSet
	Files []*ast.File // non-test files only
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of the enclosing module using
// only the standard library: module-internal imports are resolved from
// source relative to the module root, everything else (the standard
// library — this module has no external dependencies) goes through the
// stdlib "source" importer. This keeps bflint runnable in hermetic
// environments with no module cache and no network.
type Loader struct {
	Fset       *token.FileSet
	ModuleRoot string
	ModulePath string

	std     types.Importer
	pkgs    map[string]*Package // by dir + import path
	loading map[string]bool     // import-cycle guard
}

// NewLoader locates the module containing dir (by walking up to go.mod)
// and returns a Loader rooted there.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		root = parent
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	// The source importer consults go/build; with cgo disabled it picks
	// the pure-Go variants of stdlib packages (net, os/user, ...), which
	// type-check without a C toolchain.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		ModuleRoot: root,
		ModulePath: modPath,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// Expand resolves package patterns relative to the module root. "./..."
// (or "...") walks the whole module; "./x" and bare import paths name one
// package. Directories without non-test Go files, testdata trees, and
// hidden/underscore directories are skipped.
func (l *Loader) Expand(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			err := filepath.WalkDir(l.ModuleRoot, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != l.ModuleRoot &&
					(strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
					return filepath.SkipDir
				}
				if hasGoFiles(path) {
					add(l.dirToImportPath(path))
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		case strings.HasPrefix(pat, "./"):
			dir := filepath.Join(l.ModuleRoot, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
			if !hasGoFiles(dir) {
				return nil, fmt.Errorf("lint: no Go files in %s", dir)
			}
			add(l.dirToImportPath(dir))
		default:
			add(pat)
		}
	}
	sort.Strings(out)
	return out, nil
}

func (l *Loader) dirToImportPath(dir string) string {
	rel, err := filepath.Rel(l.ModuleRoot, dir)
	if err != nil || rel == "." {
		return l.ModulePath
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel)
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if isSourceFile(e) {
			return true
		}
	}
	return false
}

func isSourceFile(e os.DirEntry) bool {
	name := e.Name()
	return !e.IsDir() && strings.HasSuffix(name, ".go") &&
		!strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_")
}

// Load parses and type-checks the package with the given import path
// (module-internal paths only).
func (l *Loader) Load(path string) (*Package, error) {
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	if path != l.ModulePath && !strings.HasPrefix(path, l.ModulePath+"/") {
		return nil, fmt.Errorf("lint: %q is not a package of module %s", path, l.ModulePath)
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
	dir := filepath.Join(l.ModuleRoot, filepath.FromSlash(rel))
	return l.loadDir(dir, path)
}

// LoadDir type-checks the package in dir under a caller-chosen import
// path. The analyzer golden tests use it to stand up testdata packages
// whose paths exercise path-sensitive rules (wallclock's allowlist,
// boundedalloc's decoder set).
func (l *Loader) LoadDir(dir, asPath string) (*Package, error) {
	return l.loadDir(dir, asPath)
}

func (l *Loader) loadDir(dir, path string) (*Package, error) {
	// The cache key includes the directory: golden tests stand up
	// different testdata packages under the same synthetic import path
	// (two analyzers both want "example.com/internal/pcap"), and a
	// path-only key would hand the second test the first test's package.
	key := dir + "\x00" + path
	if pkg, ok := l.pkgs[key]; ok {
		return pkg, nil
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %q: %w", path, err)
	}
	var files []*ast.File
	for _, e := range entries {
		if !isSourceFile(e) {
			continue
		}
		// Respect build constraints the way the compiler does: files gated
		// behind //go:build tags not in the default context (e.g. the
		// afpacket capture backend) would otherwise be type-checked
		// alongside their fallback twins and fail on duplicate symbols.
		if match, err := build.Default.MatchFile(dir, e.Name()); err != nil || !match {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, e.Name()), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", e.Name(), err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", path, err)
	}
	pkg := &Package{
		Path:  path,
		Fset:  l.Fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	l.pkgs[key] = pkg
	return pkg, nil
}

// loaderImporter adapts Loader to types.Importer: module-internal imports
// recurse into the loader, everything else falls through to the stdlib
// source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}
