package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// SentinelErrAnalyzer enforces wrap-aware error handling for the
// repository's sentinel errors (ErrConfig, ErrSnapshotKind, ...).
//
// Most sentinels in this codebase are returned wrapped — typically
// fmt.Errorf("%w: detail", ErrConfig, ...) — and the rest (packet's
// ErrTruncated, capture's ErrClosed) may be at any later change, so direct
// identity checks are latent bugs: err == ErrConfig is false for every
// wrapped return even though errors.Is(err, ErrConfig) is true, and the
// API docs ("matchable with errors.Is") promise exactly the latter.
// Symmetrically, wrapping a sentinel with %v or %s instead of %w severs
// the Is chain for every caller downstream.
//
// Reported patterns:
//
//   - x == ErrFoo / x != ErrFoo where ErrFoo is a package-level error
//     variable named Err*: use errors.Is (comparisons against nil are
//     fine)
//   - fmt.Errorf("...", ..., ErrFoo, ...) where ErrFoo's verb is not %w:
//     the sentinel would be flattened to text
var SentinelErrAnalyzer = &Analyzer{
	Name: "sentinelerr",
	Doc:  "require errors.Is/%w for sentinel errors instead of == or %v",
	Run:  runSentinelErr,
}

func runSentinelErr(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				checkSentinelComparison(pass, n)
			case *ast.CallExpr:
				checkSentinelWrap(pass, n)
			}
			return true
		})
	}
	return nil
}

// sentinelObj resolves e to a package-level error variable named Err*,
// defined in any package (this module's sentinels and stdlib ones like
// os.ErrNotExist alike — all are documented for errors.Is matching).
func sentinelObj(pass *Pass, e ast.Expr) types.Object {
	var ident *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		ident = e
	case *ast.SelectorExpr:
		ident = e.Sel
	default:
		return nil
	}
	obj := pass.TypesInfo.Uses[ident]
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return nil
	}
	// Package-level: parent scope is the package scope.
	if v.Parent() == nil || v.Parent() != v.Pkg().Scope() {
		return nil
	}
	if !strings.HasPrefix(v.Name(), "Err") || !isErrorType(v.Type()) {
		return nil
	}
	return v
}

func checkSentinelComparison(pass *Pass, bin *ast.BinaryExpr) {
	if bin.Op != token.EQL && bin.Op != token.NEQ {
		return
	}
	for _, operand := range []ast.Expr{bin.X, bin.Y} {
		if obj := sentinelObj(pass, operand); obj != nil {
			op := "errors.Is"
			if bin.Op == token.NEQ {
				op = "!errors.Is"
			}
			pass.Reportf(bin.Pos(),
				"sentinel error %s compared with %s; wrapped returns make this false — use %s(err, %s)",
				obj.Name(), bin.Op, op, obj.Name())
			return
		}
	}
}

// checkSentinelWrap flags fmt.Errorf calls that pass a sentinel under a
// verb other than %w.
func checkSentinelWrap(pass *Pass, call *ast.CallExpr) {
	pkgPath, name, ok := pkgFunc(pass.TypesInfo, call)
	if !ok || pkgPath != "fmt" || name != "Errorf" || len(call.Args) < 2 {
		return
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return
	}
	format, err := strconv.Unquote(lit.Value)
	if err != nil {
		return
	}
	verbs := formatVerbs(format)
	for i, arg := range call.Args[1:] {
		obj := sentinelObj(pass, arg)
		if obj == nil {
			continue
		}
		verb := byte(0)
		if i < len(verbs) {
			verb = verbs[i]
		}
		if verb != 'w' {
			pass.Reportf(arg.Pos(),
				"sentinel error %s wrapped with %%%c; use %%w so callers can match it with errors.Is",
				obj.Name(), printableVerb(verb))
		}
	}
}

func printableVerb(v byte) byte {
	if v == 0 {
		return '?'
	}
	return v
}

// formatVerbs returns the verb letter for each successive argument of a
// Printf-style format string. Explicit argument indexes (%[n]d) are rare
// in this codebase and treated conservatively: they terminate parsing.
func formatVerbs(format string) []byte {
	var verbs []byte
	i := 0
	for i < len(format) {
		if format[i] != '%' {
			i++
			continue
		}
		i++
		// Skip flags, width, precision; a '*' width consumes an
		// argument of its own.
		for i < len(format) {
			c := format[i]
			if c == '*' {
				verbs = append(verbs, '*')
				i++
				continue
			}
			if strings.IndexByte("+-# 0123456789.", c) >= 0 {
				i++
				continue
			}
			break
		}
		if i >= len(format) {
			break
		}
		switch format[i] {
		case '%': // literal percent, no argument
		case '[':
			return verbs // explicit index: give up, stay silent
		default:
			verbs = append(verbs, format[i])
		}
		i++
	}
	return verbs
}
