// Package lint is bflint's analysis engine: a small, self-contained
// reimplementation of the golang.org/x/tools/go/analysis driver surface
// (Analyzer, Pass, Diagnostic) built only on the standard library's go/ast
// and go/types, plus the six domain analyzers that enforce this
// repository's own invariants:
//
//   - wallclock:    deterministic packages must not read the wall clock
//   - hotpath:      //bf:hotpath functions must stay allocation-free
//   - lockguard:    //bf:guardedby fields are only touched under their
//     mutex; atomics are typed, never guarded
//   - boundedalloc: packages that parse untrusted input clamp every
//     allocation size in the function that allocates
//   - sentinelerr:  sentinel errors use errors.Is / %w, never == or %v
//   - goleak:       every go statement has a statically visible join
//
// Generic tooling (vet, staticcheck) cannot check any of these: they are
// properties of this codebase's design — the batch hot path's 0 allocs/op
// contract, the injected-clock determinism the experiments and the
// checkpoint restore path rely on, the mutex discipline that already caught
// one real race (the Sharded+APD shared-policy bug), and the adversarial
// posture of the snapshot/packet/pcap decoders. What a type or a test
// already holds is left to it: vet's copylocks for copied atomics, the
// zero-alloc tests for what the compiler's escape analysis decides.
//
// # Annotation language
//
//	//bf:hotpath
//	    On a function or method declaration: the body must not contain
//	    allocation-forcing constructs (see hotpath.go).
//
//	//bf:guardedby <field>
//	    On a struct field: every read or write of the field must happen in
//	    a function that locks <field> (a sibling mutex field) on the same
//	    receiver expression (see lockguard.go).
//
//	//bf:allow <analyzer> [reason...]
//	    On the offending line, or in the doc comment of the enclosing
//	    function: suppresses that analyzer's diagnostics there. Every
//	    allow should carry a reason; one that suppresses nothing is
//	    itself reported (see Check).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named rule. It mirrors the x/tools analysis.Analyzer
// shape so the rules could be ported to a multichecker verbatim if a
// vendored x/tools ever becomes available.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
	lines *lineComments
}

// Diagnostic is one finding, positioned for file:line:col display.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a diagnostic at pos unless an //bf:allow comment for
// this analyzer covers the position (same line, or the doc comment of the
// enclosing function declaration).
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.allowedAt(pos) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full bflint suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		WallclockAnalyzer,
		HotpathAnalyzer,
		LockguardAnalyzer,
		BoundedAllocAnalyzer,
		SentinelErrAnalyzer,
		GoleakAnalyzer,
	}
}

// allowSite is one //bf:allow marker found in a package, and whether any
// analyzer had a diagnostic suppressed by it.
type allowSite struct {
	pos      token.Position
	analyzer string
	used     bool
}

// Check runs the analyzers over pkg, then audits its //bf:allow markers,
// and returns the diagnostics sorted by position. A marker that suppressed
// nothing is drift — the code it excused was fixed, or it was misplaced and
// never protected anything — and one naming no analyzer of the suite (a
// typo, or an analyzer since retired) can never suppress anything: both are
// reported as staleallow.
func Check(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	lines := newLineComments(pkg.Fset, pkg.Files)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			diags:     &diags,
			lines:     lines,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
	}
	diags = append(diags, staleAllows(lines.allows)...)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// staleAllows turns the unused //bf:allow markers into diagnostics.
func staleAllows(allows []*allowSite) []Diagnostic {
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	var diags []Diagnostic
	for _, s := range allows {
		if s.used {
			continue
		}
		msg := "//bf:allow %s suppresses nothing; the code it excused was fixed or the marker is misplaced — delete it"
		if !known[s.analyzer] {
			msg = "//bf:allow %s names no bflint analyzer (see bflint -h), so it can never suppress anything — fix the name or delete it"
		}
		diags = append(diags, Diagnostic{
			Pos:      s.pos,
			Analyzer: "staleallow",
			Message:  fmt.Sprintf(msg, s.analyzer),
		})
	}
	return diags
}

// ---- //bf: annotation plumbing ----

const (
	allowMarker     = "bf:allow"
	hotpathMarker   = "bf:hotpath"
	guardedByMarker = "bf:guardedby"
)

// lineComments indexes every //bf:allow marker by (file, line) so
// same-line allows resolve in O(1), records which lines each function
// declaration spans so function-level allows cover their bodies, and
// keeps the full allow inventory with usage bits for the stale-allow
// audit.
type lineComments struct {
	fset *token.FileSet
	// lineAllow maps file:line to the allow sites declared on that line.
	lineAllow map[string][]*allowSite
	// funcAllow maps file:line to the allow sites of the function whose
	// body covers that line (entries are shared across the span, so one
	// suppression anywhere marks the site used).
	funcAllow map[string][]*allowSite
	// allows is every //bf:allow marker in the package, in source order.
	allows []*allowSite
}

func lineKey(pos token.Position) string {
	return fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
}

func newLineComments(fset *token.FileSet, files []*ast.File) *lineComments {
	lc := &lineComments{
		fset:      fset,
		lineAllow: make(map[string][]*allowSite),
		funcAllow: make(map[string][]*allowSite),
	}
	// Function-doc comment groups become function-scoped allows; every
	// other comment is a line-scoped allow on its own line.
	funcDocs := make(map[*ast.CommentGroup]*ast.FuncDecl)
	for _, f := range files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Doc != nil {
				funcDocs[fd.Doc] = fd
			}
		}
		for _, cg := range f.Comments {
			fd := funcDocs[cg]
			for _, c := range cg.List {
				// Read the raw comment text: CommentGroup.Text() drops
				// directive-style comments (no space after //), which is
				// exactly what //bf:allow is.
				name, ok := allowedAnalyzer(c.Text)
				if !ok {
					continue
				}
				site := &allowSite{pos: fset.Position(c.Pos()), analyzer: name}
				lc.allows = append(lc.allows, site)
				if fd != nil {
					start := fset.Position(fd.Pos())
					end := fset.Position(fd.End())
					for line := start.Line; line <= end.Line; line++ {
						key := fmt.Sprintf("%s:%d", start.Filename, line)
						lc.funcAllow[key] = append(lc.funcAllow[key], site)
					}
				} else {
					lc.lineAllow[lineKey(site.pos)] = append(lc.lineAllow[lineKey(site.pos)], site)
				}
			}
		}
	}
	return lc
}

// allowedAnalyzer extracts the analyzer name from one //bf:allow comment
// line, if present.
func allowedAnalyzer(text string) (string, bool) {
	rest, ok := markerArgs(text, allowMarker)
	if !ok {
		return "", false
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return "", false
	}
	return fields[0], true
}

// markerArgs reports whether line carries the given //bf: marker and
// returns the text following it.
func markerArgs(line, marker string) (string, bool) {
	line = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "//"))
	if line == marker {
		return "", true
	}
	if strings.HasPrefix(line, marker+" ") || strings.HasPrefix(line, marker+"\t") {
		return strings.TrimSpace(line[len(marker):]), true
	}
	return "", false
}

// commentHasMarker reports whether any line of a comment group carries the
// marker, returning its arguments.
func commentHasMarker(doc *ast.CommentGroup, marker string) (string, bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		if args, ok := markerArgs(c.Text, marker); ok {
			return args, true
		}
	}
	return "", false
}

func (p *Pass) allowedAt(pos token.Pos) bool {
	key := lineKey(p.Fset.Position(pos))
	for _, site := range p.lines.lineAllow[key] {
		if site.analyzer == p.Analyzer.Name {
			site.used = true
			return true
		}
	}
	for _, site := range p.lines.funcAllow[key] {
		if site.analyzer == p.Analyzer.Name {
			site.used = true
			return true
		}
	}
	return false
}

// ---- shared AST / type helpers ----

// pkgFunc resolves a call to a top-level function of a named package
// (e.g. time.Now, fmt.Errorf), returning (package path, func name, true).
// It resolves the qualifier through the type info, so import aliases are
// handled.
func pkgFunc(info *types.Info, call *ast.CallExpr) (string, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	ident, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", "", false
	}
	pn, ok := info.Uses[ident].(*types.PkgName)
	if !ok {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// calleeFunc resolves a call to a same-package function or method
// declaration's object, or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
		}
	}
	return nil
}

// pkgLeaf is the last element of an import path: the path-sensitive
// analyzers match on it so synthetic testdata paths select the same rules.
func pkgLeaf(path string) string {
	segs := strings.Split(path, "/")
	return segs[len(segs)-1]
}

// isBuiltin reports whether fun names the predeclared function name
// (make, len, min, ...), not a shadowing declaration.
func isBuiltin(info *types.Info, fun ast.Expr, name string) bool {
	ident, ok := ast.Unparen(fun).(*ast.Ident)
	if !ok || ident.Name != name {
		return false
	}
	_, ok = info.Uses[ident].(*types.Builtin)
	return ok
}

// isErrorType reports whether t is (or trivially implements) the built-in
// error interface.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	errType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	return types.Implements(t, errType)
}

// funcScopes yields every function body in the file as an independent
// scope: each FuncDecl, and each FuncLit nested anywhere (goroutine
// bodies, callbacks). The enclosing decl is passed for annotation lookup
// (nil for FuncLits outside any decl, which cannot happen in valid Go).
func funcScopes(f *ast.File, visit func(decl *ast.FuncDecl, body *ast.BlockStmt)) {
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		visit(fd, fd.Body)
		// Each nested FuncLit (goroutine body, callback) is its own
		// scope; Inspect finds them at any depth, each exactly once.
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				visit(fd, fl.Body)
			}
			return true
		})
	}
}

// inspectShallow walks body but does not descend into nested function
// literals: those are separate scopes handled by funcScopes.
func inspectShallow(body ast.Node, visit func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != body {
			return false
		}
		return visit(n)
	})
}
