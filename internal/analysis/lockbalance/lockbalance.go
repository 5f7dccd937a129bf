// Package lockbalance enforces balanced, correctly-kinded mutex use and
// rejects by-value copies of sync primitives.
//
// The serving layer (ARCHITECTURE.md §8) holds its response-cache and
// coalescing locks for microseconds on the request path; a Lock with a
// return path that skips the Unlock deadlocks every later request on
// that mutex — the kind of bug that passes a unit test touching the
// happy path and takes the server down under the first error. Three
// checks, all function-local and position-based (no CFG — a lint with
// an escape hatch, not a verifier):
//
//   - every Lock/RLock must have a matching Unlock/RUnlock later in the
//     same function, and every return after the acquire must be covered
//     by a deferred release or a release between the acquire and the
//     return;
//   - an RLock released by Unlock (or a Lock released by RUnlock) is a
//     kind mismatch: on a sync.RWMutex the wrong-kinded release panics
//     or corrupts the reader count;
//   - sync.Mutex, sync.RWMutex, sync.WaitGroup, sync.Once, sync.Cond
//     and sync.Map must never be passed or copied by value — the copy
//     has its own state and the original's holders are invisible to it.
//
// Lock-handoff helpers (acquire in one function, release in another)
// are rare and deliberate; they carry //wiclean:allow-lockbalance with
// the pairing documented.
package lockbalance

import (
	"go/ast"
	"go/token"
	"go/types"

	"wiclean/internal/analysis"
)

// DirectiveName is the //wiclean:allow- suffix suppressing this analyzer.
const DirectiveName = "lockbalance"

// Analyzer is the lock-balance check.
var Analyzer = &analysis.Analyzer{
	Name:      "lockbalance",
	Directive: DirectiveName,
	Doc: "Lock/RLock must be released on every return path of the same function with the " +
		"matching kind (Unlock vs RUnlock), and sync primitives (Mutex, RWMutex, WaitGroup, " +
		"Once, Cond, Map) must not be passed or copied by value",
	Run: run,
}

// copyTypes are the sync types that must never travel by value.
var copyTypes = map[string]bool{
	"Mutex": true, "RWMutex": true, "WaitGroup": true,
	"Once": true, "Cond": true, "Map": true,
}

// acquireRelease maps each acquire method to its matching release.
var acquireRelease = map[string]string{"Lock": "Unlock", "RLock": "RUnlock"}

// releaseKinds is the set of release method names.
var releaseKinds = map[string]bool{"Unlock": true, "RUnlock": true}

func run(pass *analysis.Pass) error {
	pass.CheckDirectives(DirectiveName)
	for _, f := range pass.Files {
		checkCopies(pass, f)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkScopes(pass, fd.Body)
		}
	}
	return nil
}

// checkScopes runs the balance analysis on body and recursively on every
// nested function literal: a closure is its own lock scope.
func checkScopes(pass *analysis.Pass, body *ast.BlockStmt) {
	checkBalance(pass, body)
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			checkScopes(pass, lit.Body)
			return false
		}
		return true
	})
}

// lockOp is one Lock/RLock/Unlock/RUnlock call inside a scope.
type lockOp struct {
	kind     string // method name
	key      string // rendered receiver expression
	pos      token.Pos
	deferred bool
}

// checkBalance analyzes one function scope: collect the lock operations
// and return positions (nested literals excluded, except that releases
// inside a *deferred* literal count as deferred releases of this scope),
// then apply the pairing, return-path and kind-mismatch rules.
func checkBalance(pass *analysis.Pass, body *ast.BlockStmt) {
	var ops []lockOp
	var exits []token.Pos

	var walk func(n ast.Node, deferred bool)
	walk = func(n ast.Node, deferred bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.DeferStmt:
				if op, ok := lockCall(pass, n.Call); ok {
					op.deferred = true
					ops = append(ops, op)
					return false
				}
				if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
					// defer func() { mu.Unlock() }(): its releases run at
					// this scope's exit, so they are deferred ops here.
					walk(lit.Body, true)
					return false
				}
			case *ast.CallExpr:
				if op, ok := lockCall(pass, n); ok {
					op.deferred = deferred
					ops = append(ops, op)
				}
			case *ast.ReturnStmt:
				if !deferred {
					exits = append(exits, n.Pos())
				}
			case *ast.FuncLit:
				return false // separate scope, handled by checkScopes
			}
			return true
		})
	}
	walk(body, false)
	if len(ops) == 0 {
		return
	}
	// Falling off the end of the function is an exit too.
	exits = append(exits, body.End())

	// Kind mismatches first: an acquire whose own release kind is absent
	// while the opposite kind is present is reported as a mismatch, not
	// as a missing release.
	mismatched := map[string]bool{}
	for _, kinds := range []struct{ acq, rel, wrong string }{
		{"RLock", "RUnlock", "Unlock"},
		{"Lock", "Unlock", "RUnlock"},
	} {
		for _, op := range ops {
			if op.kind != kinds.acq || mismatched[op.key] {
				continue
			}
			if hasKind(ops, kinds.rel, op.key) || !hasKind(ops, kinds.wrong, op.key) {
				continue
			}
			mismatched[op.key] = true
			if !pass.Allowed(DirectiveName, op.pos) {
				pass.Reportf(op.pos,
					"%s.%s is released with %s: the release kind must match the acquire "+
						"(RLock pairs with RUnlock, Lock with Unlock)",
					op.key, op.kind, kinds.wrong)
			}
		}
	}

	for _, op := range ops {
		rel, isAcquire := acquireRelease[op.kind]
		if !isAcquire || op.deferred || mismatched[op.key] {
			continue
		}
		if pass.Allowed(DirectiveName, op.pos) {
			continue
		}
		// Rule 1: some matching release must follow the acquire at all.
		if !releasedAfter(ops, rel, op.key, op.pos) {
			pass.Reportf(op.pos,
				"%s.%s is never released in this function: pair it with %s or a defer, "+
					"or annotate the lock handoff with //wiclean:allow-lockbalance <reason>",
				op.key, op.kind, rel)
			continue
		}
		// Rule 2: every return after the acquire needs a release before
		// it — deferred anywhere earlier, or inline between the two.
		for _, exit := range exits {
			if exit <= op.pos {
				continue
			}
			if !coveredAt(ops, rel, op.key, op.pos, exit) {
				pass.Reportf(op.pos,
					"%s.%s is not released on the return path at line %d: unlock before "+
						"returning or use defer %s.%s()",
					op.key, op.kind, pass.Fset.Position(exit).Line, op.key, rel)
				break // one finding per acquire is enough
			}
		}
	}
}

// hasKind reports whether ops contains a call of kind on key.
func hasKind(ops []lockOp, kind, key string) bool {
	for _, op := range ops {
		if op.kind == kind && op.key == key {
			return true
		}
	}
	return false
}

// releasedAfter reports whether a matching release (deferred or not)
// appears after the acquire position.
func releasedAfter(ops []lockOp, rel, key string, acquire token.Pos) bool {
	for _, op := range ops {
		if op.kind == rel && op.key == key && op.pos > acquire {
			return true
		}
	}
	return false
}

// coveredAt reports whether the exit position is covered: a deferred
// matching release registered before the exit, or an inline release
// strictly between the acquire and the exit.
func coveredAt(ops []lockOp, rel, key string, acquire, exit token.Pos) bool {
	for _, op := range ops {
		if op.kind != rel || op.key != key {
			continue
		}
		if op.deferred && op.pos < exit {
			return true
		}
		if !op.deferred && op.pos > acquire && op.pos < exit {
			return true
		}
	}
	return false
}

// lockCall matches a call to one of sync.Mutex/sync.RWMutex's
// Lock/RLock/Unlock/RUnlock methods (including through embedding, which
// go/types resolves to the same method objects).
func lockCall(pass *analysis.Pass, call *ast.CallExpr) (lockOp, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return lockOp{}, false
	}
	switch fn.FullName() {
	case "(*sync.Mutex).Lock", "(*sync.Mutex).Unlock",
		"(*sync.RWMutex).Lock", "(*sync.RWMutex).Unlock",
		"(*sync.RWMutex).RLock", "(*sync.RWMutex).RUnlock":
	default:
		return lockOp{}, false
	}
	if _, acq := acquireRelease[fn.Name()]; !acq && !releaseKinds[fn.Name()] {
		return lockOp{}, false
	}
	return lockOp{kind: fn.Name(), key: exprString(sel.X), pos: call.Pos()}, true
}

// checkCopies flags sync primitives traveling by value anywhere in the
// file: parameter/result types, call arguments, and assignments copying
// an existing value.
func checkCopies(pass *analysis.Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			checkFieldLists(pass, n.Type)
		case *ast.FuncLit:
			checkFieldLists(pass, n.Type)
		case *ast.CallExpr:
			for _, arg := range n.Args {
				if !isValueUse(arg) {
					continue
				}
				if name, ok := bareSyncType(pass.TypesInfo.TypeOf(arg)); ok {
					if !pass.Allowed(DirectiveName, arg.Pos()) {
						pass.Reportf(arg.Pos(),
							"sync.%s passed by value: the callee operates on a copy whose state "+
								"diverges from the original; pass a pointer", name)
					}
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if !isValueUse(rhs) {
					continue
				}
				// Assigning to the blank identifier discards the value
				// rather than copying it anywhere.
				if i < len(n.Lhs) && len(n.Lhs) == len(n.Rhs) {
					if id, ok := n.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
						continue
					}
				}
				if name, ok := bareSyncType(pass.TypesInfo.TypeOf(rhs)); ok {
					if !pass.Allowed(DirectiveName, rhs.Pos()) {
						pass.Reportf(rhs.Pos(),
							"sync.%s copied by value: locks or counts held on the original are "+
								"invisible to the copy; share a pointer instead", name)
					}
				}
			}
		}
		return true
	})
}

// checkFieldLists flags bare sync types in a signature's parameters and
// results.
func checkFieldLists(pass *analysis.Pass, ft *ast.FuncType) {
	lists := []*ast.FieldList{ft.Params, ft.Results}
	for _, list := range lists {
		if list == nil {
			continue
		}
		for _, field := range list.List {
			if name, ok := bareSyncType(pass.TypesInfo.TypeOf(field.Type)); ok {
				if !pass.Allowed(DirectiveName, field.Pos()) {
					pass.Reportf(field.Pos(),
						"sync.%s declared by value in a signature: the function receives a copy; "+
							"use *sync.%s", name, name)
				}
			}
		}
	}
}

// isValueUse reports whether e is a use of an existing value (identifier,
// selector or index expression) rather than a fresh literal or call —
// copying a zero value out of a composite literal is initialization, not
// state loss.
func isValueUse(e ast.Expr) bool {
	switch e.(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return true
	}
	return false
}

// bareSyncType reports whether t is one of the non-copyable sync types
// by value (not behind a pointer).
func bareSyncType(t types.Type) (string, bool) {
	if t == nil {
		return "", false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" || !copyTypes[obj.Name()] {
		return "", false
	}
	return obj.Name(), true
}

// exprString renders simple receiver expressions for keys and messages.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[" + exprString(e.Index) + "]"
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.ParenExpr:
		return "(" + exprString(e.X) + ")"
	}
	return "?"
}
