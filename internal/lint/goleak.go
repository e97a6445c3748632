package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// GoleakAnalyzer turns the chaos harness's runtime goroutine-leak checks
// into a compile-time gate: every `go` statement in the capture,
// resilience, checkpoint, pump, and daemon packages must have a statically
// visible join — a signal by which some other goroutine can observe that
// this one finished.
//
// A join signal inside the spawned body (or a same-package callee it
// reaches, two calls deep) is any of:
//
//   - a channel send (including select cases) — the done-channel idiom
//   - close(ch) — typically `defer close(done)`
//   - wg.Done() on a sync.WaitGroup — provided the function that spawns
//     the goroutine also calls Add on a WaitGroup, so the pair is
//     visibly matched; Done without a visible Add is reported, because
//     an unmatched Done is how double-spawn bugs hide
//
// Broadcasting on a sync.Cond does NOT count: a Cond wakes waiters but
// carries no "finished" state a joiner can block on after the fact —
// exactly the gap the chaos tests found at runtime in reopen storms.
//
// A `go` statement whose body the analyzer cannot resolve (a function
// value from a parameter or field) is reported too: an unresolvable
// spawn is unauditable, and the fix is either to spawn a named
// same-package function or to annotate why the join lives elsewhere.
var GoleakAnalyzer = &Analyzer{
	Name: "goleak",
	Doc:  "every go statement must have a statically visible join (channel send/close or matched WaitGroup.Add/Done)",
	Run:  runGoleak,
}

// goleakTargetLeaves: the packages whose goroutines outlive request
// scope and therefore leak under reopen storms if unjoined.
var goleakTargetLeaves = map[string]bool{
	"resilience": true,
	"capture":    true,
	"checkpoint": true,
	"bfwall":     true,
	"pump":       true,
}

func runGoleak(pass *Pass) error {
	if !goleakTargetLeaves[pkgLeaf(pass.Pkg.Path())] {
		return nil
	}
	// Index same-package function declarations for body resolution.
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					decls[fn] = fd
				}
			}
		}
	}

	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// spawnerAdds: does the declaring function (any scope within
			// it) call WaitGroup.Add? Computed lazily per decl.
			adds := -1
			spawnerAdds := func() bool {
				if adds < 0 {
					adds = 0
					ast.Inspect(fd.Body, func(n ast.Node) bool {
						if call, ok := n.(*ast.CallExpr); ok && isWaitGroupCall(pass.TypesInfo, call, "Add") {
							adds = 1
						}
						return true
					})
				}
				return adds == 1
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				gs, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				checkGoStmt(pass, gs, decls, spawnerAdds)
				return true
			})
		}
	}
	return nil
}

// checkGoStmt resolves the spawned body and verifies a join signal.
func checkGoStmt(pass *Pass, gs *ast.GoStmt, decls map[*types.Func]*ast.FuncDecl, spawnerAdds func() bool) {
	body := goStmtBody(pass.TypesInfo, gs, decls)
	if body == nil {
		pass.Reportf(gs.Pos(),
			"goroutine body cannot be statically resolved (function value); spawn a named same-package function so the join is auditable")
		return
	}
	j := findJoin(pass.TypesInfo, body, decls, 2, map[*ast.BlockStmt]bool{})
	switch {
	case j.channel:
		return
	case j.wgDone:
		if spawnerAdds() {
			return
		}
		pass.Reportf(gs.Pos(),
			"goroutine signals completion via WaitGroup.Done but the spawning function never calls Add; pair them so the join is visible")
	default:
		pass.Reportf(gs.Pos(),
			"goroutine has no statically visible join (no channel send, close, or WaitGroup.Done on any path); it leaks across reopen cycles")
	}
}

// goStmtBody resolves the body a go statement runs: a FuncLit's own
// body, or the declaration of a same-package function or method.
func goStmtBody(info *types.Info, gs *ast.GoStmt, decls map[*types.Func]*ast.FuncDecl) *ast.BlockStmt {
	if fl, ok := gs.Call.Fun.(*ast.FuncLit); ok {
		return fl.Body
	}
	if fn := calleeFunc(info, gs.Call); fn != nil {
		if fd, ok := decls[fn]; ok {
			return fd.Body
		}
	}
	return nil
}

// joinSignals accumulates what findJoin saw.
type joinSignals struct {
	channel bool // send or close — self-sufficient join
	wgDone  bool // needs a matching Add in the spawner
}

// findJoin searches body — and same-package callees up to depth calls
// deep — for join signals. seen breaks recursion cycles.
func findJoin(info *types.Info, body *ast.BlockStmt, decls map[*types.Func]*ast.FuncDecl, depth int, seen map[*ast.BlockStmt]bool) joinSignals {
	if seen[body] {
		return joinSignals{}
	}
	seen[body] = true
	var j joinSignals
	// Full Inspect (not inspectShallow): a join inside a nested closure
	// the goroutine runs synchronously still joins it.
	ast.Inspect(body, func(n ast.Node) bool {
		if j.channel {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			j.channel = true
		case *ast.CallExpr:
			if isBuiltin(info, n.Fun, "close") {
				j.channel = true
				return false
			}
			if isWaitGroupCall(info, n, "Done") {
				j.wgDone = true
				return true
			}
			if depth > 0 {
				if fn := calleeFunc(info, n); fn != nil {
					if fd, ok := decls[fn]; ok && fd.Body != nil {
						sub := findJoin(info, fd.Body, decls, depth-1, seen)
						j.channel = j.channel || sub.channel
						j.wgDone = j.wgDone || sub.wgDone
					}
				}
			}
		}
		return true
	})
	return j
}

// isWaitGroupCall reports whether call is <wg>.<name>() on a
// sync.WaitGroup receiver. The type check keeps ctx.Done() and other
// Done/Add methods from matching.
func isWaitGroupCall(info *types.Info, call *ast.CallExpr, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	t := info.TypeOf(sel.X)
	if t == nil {
		return false
	}
	s := t.String()
	return strings.HasSuffix(s, "sync.WaitGroup") || strings.HasSuffix(s, "*sync.WaitGroup")
}
