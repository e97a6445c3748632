package lint

import (
	"go/ast"
	"go/types"
)

// LockguardAnalyzer checks mutex discipline declared with //bf:guardedby.
//
// A struct field annotated
//
//	f  *Filter //bf:guardedby mu
//
// may only be read or written through a selector (x.f) inside a function
// that also locks the named sibling mutex on the same base expression
// (x.mu.Lock() or x.mu.RLock()). This is exactly the class of bug behind
// the PR 3 Sharded+APD race: state reachable from multiple goroutines
// touched outside its lock.
//
// The check is intraprocedural and deliberately conservative in what it
// accepts rather than what it flags:
//
//   - Composite literals (construction: &Safe{f: f}) never alias before
//     they escape, so literal keys are exempt.
//   - A lock call anywhere in the same function body sanctions accesses
//     on that base expression; ordering within the body is not modelled.
//   - Function literals are independent scopes: a goroutine body must
//     take the lock itself (it runs concurrently with its creator).
//   - Helpers documented to be called with the lock held, and
//     single-goroutine construction code, use //bf:allow lockguard with
//     a reason.
//
// State shared without a mutex is a typed atomic: its methods are the only
// access, and go vet's copylocks reports its copies. The two rules no type
// gives are checked here: no function-style sync/atomic call, and no
// //bf:guardedby on an atomic-typed field (mixed protection orders nothing).
var LockguardAnalyzer = &Analyzer{
	Name: "lockguard",
	Doc:  "check that //bf:guardedby fields are only accessed under their mutex, and that atomics are typed and unguarded",
	Run:  runLockguard,
}

func runLockguard(pass *Pass) error {
	guarded := collectGuardedFields(pass)
	for obj := range guarded {
		if isTypedAtomic(obj.Type()) {
			pass.Reportf(obj.Pos(),
				"field %s has a sync/atomic type and a //bf:guardedby marker; mixed mutex/atomic protection orders nothing — pick one",
				obj.Name())
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if pkgPath, name, ok := pkgFunc(pass.TypesInfo, call); ok && pkgPath == "sync/atomic" {
					pass.Reportf(call.Pos(),
						"function-style atomic.%s leaves its operand open to plain reads, writes and copies; make the field a typed atomic (atomic.Uint64, ...)",
						name)
				}
			}
			return true
		})
		funcScopes(f, func(decl *ast.FuncDecl, body *ast.BlockStmt) {
			checkLockScope(pass, guarded, body)
		})
	}
	return nil
}

// isTypedAtomic reports whether t, or t's element if t is an array, is one
// of the sync/atomic value types.
func isTypedAtomic(t types.Type) bool {
	if arr, ok := t.Underlying().(*types.Array); ok {
		t = arr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync/atomic"
}

// collectGuardedFields maps each annotated field object to the name of
// the mutex field guarding it.
func collectGuardedFields(pass *Pass) map[types.Object]string {
	guarded := make(map[types.Object]string)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				mutexName, ok := commentHasMarker(field.Doc, guardedByMarker)
				if !ok {
					mutexName, ok = commentHasMarker(field.Comment, guardedByMarker)
				}
				if !ok || mutexName == "" {
					continue
				}
				for _, name := range field.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil {
						guarded[obj] = mutexName
					}
				}
			}
			return true
		})
	}
	return guarded
}

// checkLockScope verifies every guarded-field access in one function body
// against the lock calls in the same body.
func checkLockScope(pass *Pass, guarded map[types.Object]string, body *ast.BlockStmt) {
	// locked["base.mu"] is true when base.mu.Lock() or .RLock() appears
	// in this scope. Bases are compared by their printed expression, so
	// receiver idents, range variables and nested selectors all work.
	locked := make(map[string]bool)
	inspectShallow(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		if mutexSel, ok := sel.X.(*ast.SelectorExpr); ok {
			locked[types.ExprString(mutexSel)] = true
		}
		return true
	})

	inspectShallow(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection, ok := pass.TypesInfo.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return true
		}
		mutexName, isGuarded := guarded[selection.Obj()]
		if !isGuarded {
			return true
		}
		base := types.ExprString(sel.X)
		if !locked[base+"."+mutexName] {
			pass.Reportf(sel.Pos(),
				"%s.%s is guarded by %s.%s, but this function never locks it; lock the mutex, or annotate a lock-held helper //bf:allow lockguard with a reason",
				base, sel.Sel.Name, base, mutexName)
		}
		return true
	})
}
