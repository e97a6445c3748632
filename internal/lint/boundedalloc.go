package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// BoundedAllocAnalyzer guards the packages that parse adversarial input
// against attacker-sized allocations.
//
// The snapshot readers (internal/core), the wire-format decoder
// (internal/packet), the pcap reader (internal/pcap), the capture rings,
// the tenant and checkpoint readers and the HTTP control plane all
// consume bytes or config an adversary may craft — the same posture the
// Bloom-filter DDoS literature assumes for edge-router state. A length
// lifted out of such input must never size an allocation unclamped: a
// 16-byte header claiming a 4 GiB record would OOM the edge router before
// a single checksum is verified (exactly what an unvalidated snapLen
// allowed in the pcap reader before this analyzer landed).
//
// In those packages every non-constant allocation size — a make length
// or capacity, a bytes/strings.Repeat count, a bytes.Buffer.Grow argument
// — must be clamped in the function that allocates. The rule is local on
// purpose: a helper that allocates whatever its caller passes is flagged
// inside the helper, whoever calls it. A size expression is clamped when
// each non-constant leaf is one of:
//
//   - len(x) or cap(x) (bounded by memory that already exists)
//   - x & const or x % const (bounded by construction)
//   - min(x, const)
//   - an expression compared in this function with <, <=, > or >=
//     against a positive constant, a len/cap expression, or a plain
//     identifier
//   - a local defined in this function whose every assignment is itself
//     clamped (n := int(b[0]) & 0x3f)
//
// Comparison against a struct field does NOT clamp: fields carry
// unvalidated decoded state across calls (r.snapLen was the concrete
// case). Nor do ==, !=, a comparison against a constant ≤ 0 or max with a
// constant: n != 7, n <= 0 and max(n, 64) bound nothing from above. Clamps
// the analyzer cannot see locally are either re-validated locally
// (preferred: defense in depth) or annotated //bf:allow boundedalloc with
// a reason.
var BoundedAllocAnalyzer = &Analyzer{
	Name: "boundedalloc",
	Doc:  "flag unclamped allocation sizes (make, Repeat, Buffer.Grow) in the packages that parse untrusted input",
	Run:  runBoundedAlloc,
}

// boundedAllocLeaves are the package-name leaves that parse adversarial
// bytes or attacker-shaped config.
var boundedAllocLeaves = map[string]bool{
	"core":       true,
	"packet":     true,
	"pcap":       true,
	"capture":    true,
	"tenant":     true,
	"checkpoint": true,
	"httpapi":    true,
}

func runBoundedAlloc(pass *Pass) error {
	if !boundedAllocLeaves[pkgLeaf(pass.Pkg.Path())] {
		return nil
	}
	for _, f := range pass.Files {
		funcScopes(f, func(decl *ast.FuncDecl, body *ast.BlockStmt) {
			c := collectClamps(pass, body)
			inspectShallow(body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				what, sizes := allocSizes(pass.TypesInfo, call)
				for _, size := range sizes {
					for _, leaf := range c.unclamped(size) {
						pass.Reportf(leaf.Pos(),
							"%s %s is not clamped in this function; in a package that parses untrusted input, bound it here by a <, <=, > or >= comparison against a positive constant, len/cap or a local, a & or %% by a constant, or min with a constant (struct-field comparisons, equality tests and lower bounds do not count)",
							what, types.ExprString(leaf))
					}
				}
				return true
			})
		})
	}
	return nil
}

// allocSizes returns the size arguments of an allocation sink call: make's
// length and capacity, bytes/strings.Repeat's count, bytes.Buffer.Grow's n.
func allocSizes(info *types.Info, call *ast.CallExpr) (string, []ast.Expr) {
	if isBuiltin(info, call.Fun, "make") {
		return "make size", call.Args[1:]
	}
	if pkgPath, name, ok := pkgFunc(info, call); ok {
		if (pkgPath == "bytes" || pkgPath == "strings") && name == "Repeat" && len(call.Args) == 2 {
			return "Repeat count", call.Args[1:]
		}
		return "", nil
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Grow" && len(call.Args) == 1 {
		if recv := info.TypeOf(sel.X); recv != nil && strings.TrimPrefix(recv.String(), "*") == "bytes.Buffer" {
			return "Grow size", call.Args
		}
	}
	return "", nil
}

// clamps is what one function body bounds: the printed forms a comparison
// holds against a trusted operand, and the locals whose every assignment
// is clamped.
type clamps struct {
	info   *types.Info
	exprs  map[string]bool
	locals map[types.Object]bool
}

func collectClamps(pass *Pass, body *ast.BlockStmt) *clamps {
	c := &clamps{info: pass.TypesInfo, exprs: make(map[string]bool)}
	// assigned[obj] lists the right-hand sides stored into a local defined
	// by := in this body; a nil entry is a store the rule cannot read
	// (compound assignment, multi-value call).
	assigned := make(map[types.Object][]ast.Expr)
	inspectShallow(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			switch n.Op {
			case token.LSS, token.GTR, token.LEQ, token.GEQ:
				if c.trustedBound(n.Y) {
					c.exprs[types.ExprString(n.X)] = true
				}
				if c.trustedBound(n.X) {
					c.exprs[types.ExprString(n.Y)] = true
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				ident, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := c.info.ObjectOf(ident)
				if obj == nil {
					continue
				}
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) && (n.Tok == token.DEFINE || n.Tok == token.ASSIGN) {
					rhs = n.Rhs[i]
				}
				if _, local := assigned[obj]; local || (n.Tok == token.DEFINE && c.info.Defs[ident] == obj) {
					assigned[obj] = append(assigned[obj], rhs)
				}
			}
		}
		return true
	})
	// One level only: the right-hand sides are judged before any local is
	// known clamped, so a local assigned from another clamped local is not.
	clamped := make(map[types.Object]bool, len(assigned))
	for obj, rhss := range assigned {
		clamped[obj] = true
		for _, rhs := range rhss {
			if rhs == nil || len(c.unclamped(rhs)) > 0 {
				clamped[obj] = false
			}
		}
	}
	c.locals = clamped
	return c
}

// trustedBound reports whether a comparison operand bounds the other
// side from above: a positive constant, len/cap, or a plain identifier.
// A constant ≤ 0 is a lower bound or a sign test; struct-field selectors
// may hold unvalidated decoded values.
func (c *clamps) trustedBound(e ast.Expr) bool {
	e = ast.Unparen(e)
	if tv, ok := c.info.Types[e]; ok && tv.Value != nil {
		v := constant.ToFloat(tv.Value)
		return v.Kind() == constant.Float && constant.Sign(v) > 0
	}
	switch e := e.(type) {
	case *ast.Ident:
		return true
	case *ast.CallExpr:
		return isBuiltin(c.info, e.Fun, "len") || isBuiltin(c.info, e.Fun, "cap")
	}
	return false
}

// unclamped decomposes a size expression through arithmetic and
// conversions and returns the leaves that are not clamped.
func (c *clamps) unclamped(e ast.Expr) []ast.Expr {
	e = ast.Unparen(e)
	if tv, ok := c.info.Types[e]; ok && tv.Value != nil {
		return nil
	}
	if c.exprs[types.ExprString(e)] {
		return nil
	}
	switch e := e.(type) {
	case *ast.Ident:
		if c.locals[c.info.ObjectOf(e)] {
			return nil
		}
	case *ast.BinaryExpr:
		if e.Op == token.AND || e.Op == token.REM {
			if tv, ok := c.info.Types[e.Y]; ok && tv.Value != nil {
				return nil
			}
		}
		return append(c.unclamped(e.X), c.unclamped(e.Y)...)
	case *ast.CallExpr:
		if isBuiltin(c.info, e.Fun, "len") || isBuiltin(c.info, e.Fun, "cap") {
			return nil
		}
		if isBuiltin(c.info, e.Fun, "min") {
			for _, arg := range e.Args {
				if tv, ok := c.info.Types[arg]; ok && tv.Value != nil {
					return nil
				}
			}
		}
		// Conversions unwrap to their operand; other calls are opaque.
		if tv, ok := c.info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return c.unclamped(e.Args[0])
		}
	}
	return []ast.Expr{e}
}
