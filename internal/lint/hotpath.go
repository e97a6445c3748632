package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// HotpathAnalyzer enforces the batch data plane's 0 allocs/op contract.
//
// Functions annotated //bf:hotpath (ProcessBatchInto and its helpers,
// the bitvector SetPairAllVectors/TestPair kernels, the per-packet
// process/mark/lookup path) are the per-packet steady state: one allocation there
// turns into millions per second at line rate and shows up directly in
// the ns/pkt benchmarks the repo gates on. The benchmarks catch a
// regression after the fact; this analyzer rejects the construct at
// review time.
//
// Reported constructs:
//
//   - calls into fmt or log (allocate and box their arguments)
//   - map and slice composite literals, make, new
//   - function literals (closure allocation)
//   - go statements (goroutine + closure)
//   - defer, except mutex Unlock/RUnlock (open-coded and free since
//     go1.13) — the pump's panic boundaries (a recover per source batch)
//     are the documented //bf:allow escape hatch
//   - interface boxing: passing a non-pointer concrete value to an
//     interface-typed parameter forces a heap conversion
var HotpathAnalyzer = &Analyzer{
	Name: "hotpath",
	Doc:  "forbid allocation-forcing constructs in //bf:hotpath functions",
	Run:  runHotpath,
}

func runHotpath(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if _, ok := commentHasMarker(fd.Doc, hotpathMarker); !ok {
				continue
			}
			checkHotpathBody(pass, fd)
		}
	}
	return nil
}

func checkHotpathBody(pass *Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure literal in hot path %s allocates", fd.Name.Name)
			return false // its body is off the hot path once reported
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "go statement in hot path %s allocates a goroutine", fd.Name.Name)
		case *ast.DeferStmt:
			if !isUnlockCall(n.Call) {
				pass.Reportf(n.Pos(),
					"defer in hot path %s (only mutex Unlock/RUnlock defers are free); if this defer is load-bearing (e.g. a pooled put that must survive panics), annotate it //bf:allow hotpath with a reason",
					fd.Name.Name)
			}
		case *ast.CompositeLit:
			switch info.TypeOf(n).Underlying().(type) {
			case *types.Map:
				pass.Reportf(n.Pos(), "map literal in hot path %s allocates", fd.Name.Name)
			case *types.Slice:
				pass.Reportf(n.Pos(), "slice literal in hot path %s allocates", fd.Name.Name)
			}
		case *ast.CallExpr:
			checkHotpathCall(pass, fd, n)
		}
		return true
	})
}

// isUnlockCall reports whether call is anyMutex.Unlock() / .RUnlock().
func isUnlockCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	return sel.Sel.Name == "Unlock" || sel.Sel.Name == "RUnlock"
}

func checkHotpathCall(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr) {
	info := pass.TypesInfo

	// Builtins that allocate.
	if ident, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[ident].(*types.Builtin); isBuiltin {
			switch ident.Name {
			case "make", "new":
				pass.Reportf(call.Pos(), "%s in hot path %s allocates; preallocate or pool the buffer", ident.Name, fd.Name.Name)
			case "append":
				pass.Reportf(call.Pos(), "append in hot path %s may grow and allocate; size the buffer up front", fd.Name.Name)
			}
			return
		}
	}

	// Formatting/logging packages allocate and box their arguments.
	if pkgPath, name, ok := pkgFunc(info, call); ok {
		if pkgPath == "fmt" || pkgPath == "log" || strings.HasSuffix(pkgPath, "/log") {
			pass.Reportf(call.Pos(), "%s.%s in hot path %s allocates and boxes its arguments", pkgPath, name, fd.Name.Name)
			return
		}
	}

	// Interface boxing at call boundaries: a non-pointer concrete
	// argument converted to an interface parameter heap-allocates.
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return // type conversion or builtin
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var paramType types.Type
		switch {
		case i < params.Len()-1 || (!sig.Variadic() && i < params.Len()):
			paramType = params.At(i).Type()
		case sig.Variadic():
			if call.Ellipsis.IsValid() {
				paramType = params.At(params.Len() - 1).Type()
			} else {
				paramType = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
			}
		default:
			continue
		}
		if !types.IsInterface(paramType.Underlying()) {
			continue
		}
		argType := info.TypeOf(arg)
		if argType == nil || types.IsInterface(argType.Underlying()) {
			continue
		}
		switch argType.Underlying().(type) {
		case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
			// Pointer-shaped values box without a heap allocation.
			continue
		}
		if tv, ok := info.Types[arg]; ok && tv.IsNil() {
			continue
		}
		pass.Reportf(arg.Pos(),
			"argument boxes %s into interface %s in hot path %s; pass a pointer or keep the parameter concrete",
			argType, paramType, fd.Name.Name)
	}
}
