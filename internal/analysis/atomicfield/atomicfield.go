// Package atomicfield enforces the two atomics contracts the codebase
// relies on.
//
// Mixed access: a struct field touched through sync/atomic
// (atomic.LoadInt64(&s.n), atomic.AddInt64(&s.n, 1), …) in one place and
// by plain read or write in another has no memory-ordering story at all —
// the plain access races with every atomic one, and the race detector
// only catches it if a test happens to interleave them. Once a field is
// atomic, it is atomic everywhere in the package. (New code should
// prefer the typed sync/atomic wrappers, which make mixed access
// unrepresentable; this check guards the old-style call form.)
//
// Load-once: the serving layer (ARCHITECTURE.md §8) publishes its whole
// configuration as one *serveState behind an atomic.Pointer, and the
// contract is that a request handler Loads it exactly once and threads
// that snapshot through — a second Load in the same function can observe
// a different state mid-request (limiter from the old config, cache from
// the new), which is precisely the torn read the single-pointer design
// exists to prevent. The analyzer flags a function body that Loads the
// same typed atomic twice; pass the first snapshot instead. A
// deliberate re-read (e.g. a retry loop that wants the freshest state)
// carries //wiclean:allow-atomicfield <reason>.
package atomicfield

import (
	"go/ast"
	"go/types"

	"wiclean/internal/analysis"
)

// Analyzer is the atomic-access consistency check.
var Analyzer = &analysis.Analyzer{
	Name:      "atomicfield",
	Directive: "atomicfield",
	Doc: "a struct field accessed through sync/atomic must not also be read or written " +
		"plainly anywhere in the package, and a typed atomic (atomic.Pointer, atomic.Bool, …) " +
		"must be Loaded at most once per function — thread the snapshot through instead",
	Run: run,
}

// atomicCallFields is the set of sync/atomic function names whose first
// argument is a pointer to the guarded word.
var atomicFuncs = map[string]bool{
	"AddInt32": true, "AddInt64": true, "AddUint32": true, "AddUint64": true, "AddUintptr": true,
	"LoadInt32": true, "LoadInt64": true, "LoadUint32": true, "LoadUint64": true,
	"LoadUintptr": true, "LoadPointer": true,
	"StoreInt32": true, "StoreInt64": true, "StoreUint32": true, "StoreUint64": true,
	"StoreUintptr": true, "StorePointer": true,
	"SwapInt32": true, "SwapInt64": true, "SwapUint32": true, "SwapUint64": true,
	"SwapUintptr": true, "SwapPointer": true,
	"CompareAndSwapInt32": true, "CompareAndSwapInt64": true,
	"CompareAndSwapUint32": true, "CompareAndSwapUint64": true,
	"CompareAndSwapUintptr": true, "CompareAndSwapPointer": true,
}

func run(pass *analysis.Pass) error {
	checkMixedAccess(pass)
	pass.FuncBodies(func(body *ast.BlockStmt) { checkLoadOnce(pass, body) })
	return nil
}

// checkMixedAccess records every field reached through an old-style
// sync/atomic call in pass one, then flags any other selector of those
// fields in pass two. Package-wide: the atomic call and the plain access
// race across function and file boundaries just the same.
func checkMixedAccess(pass *analysis.Pass) {
	atomicFields := map[*types.Var]ast.Expr{} // field -> one atomic use, for the message
	sanctioned := map[*ast.SelectorExpr]bool{}

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			if !isAtomicCall(pass, call) {
				return true
			}
			unary, ok := call.Args[0].(*ast.UnaryExpr)
			if !ok {
				return true
			}
			sel, ok := unary.X.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if field := fieldVar(pass, sel); field != nil {
				if _, seen := atomicFields[field]; !seen {
					atomicFields[field] = sel
				}
				sanctioned[sel] = true
			}
			return true
		})
	}
	if len(atomicFields) == 0 {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sanctioned[sel] {
				return true
			}
			field := fieldVar(pass, sel)
			if field == nil {
				return true
			}
			if _, isAtomic := atomicFields[field]; !isAtomic {
				return true
			}
			pass.Reportf(sel.Pos(),
				"field %s.%s is accessed with sync/atomic elsewhere in this package but plainly "+
					"here: every access to an atomic field must go through sync/atomic (or migrate "+
					"the field to a typed atomic)",
				fieldOwner(field), field.Name())
			return true
		})
	}
}

// checkLoadOnce flags a second Load of the same typed sync/atomic value
// in one function body; nested function literals are their own bodies
// (a closure captured for later runs at a different time, so its Load is
// a fresh request).
func checkLoadOnce(pass *analysis.Pass, body *ast.BlockStmt) {
	loads := map[string]bool{} // receiver key -> already loaded once
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			key, ok := typedAtomicLoad(pass, n)
			if !ok {
				return true
			}
			if !loads[key] {
				loads[key] = true
				return true
			}
			pass.Reportf(n.Pos(),
				"%s is Loaded more than once in this function: a second Load can observe a "+
					"different value mid-request; thread the first snapshot through "+
					"(//wiclean:allow-atomicfield <reason> for a deliberate re-read)",
				key)
		}
		return true
	})
}

// typedAtomicLoad reports whether call is a Load method on one of the
// typed sync/atomic wrappers, returning a stable key for its receiver.
// Only a path of names, selectors, dereferences and parentheses keys
// reliably: a loop over []atomic.Pointer loads a different element each
// iteration, and a call may return a different value each time.
func typedAtomicLoad(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Name() != "Load" || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" || !isPath(sel.X) {
		return "", false
	}
	return types.ExprString(sel.X), true
}

// isPath reports whether e is a name followed by selectors, dereferences
// and parentheses only.
func isPath(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return true
	case *ast.SelectorExpr:
		return isPath(e.X)
	case *ast.StarExpr:
		return isPath(e.X)
	case *ast.ParenExpr:
		return isPath(e.X)
	}
	return false
}

// isAtomicCall reports whether call invokes one of the old-style
// sync/atomic package functions.
func isAtomicCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return false
	}
	return atomicFuncs[fn.Name()]
}

// fieldVar resolves sel to a struct field belonging to a type defined in
// the package under analysis; accesses to other packages' fields are not
// ours to police.
func fieldVar(pass *analysis.Pass, sel *ast.SelectorExpr) *types.Var {
	obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Var)
	if !ok || !obj.IsField() {
		return nil
	}
	if obj.Pkg() == nil || obj.Pkg() != pass.Pkg {
		return nil
	}
	return obj
}

// fieldOwner renders the defining struct's name for messages, falling
// back to the package name.
func fieldOwner(field *types.Var) string {
	// The field's position is inside some named struct; go/types does not
	// link back to it directly, so the package path is the best stable
	// qualifier available without a full scope walk.
	if field.Pkg() != nil {
		return field.Pkg().Name()
	}
	return "?"
}
