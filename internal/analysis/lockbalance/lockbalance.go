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
//     same function or deferred anywhere in it, and every return after
//     the acquire must be covered by a deferred release or a release
//     between the acquire and the return (a deferred Unlock names the
//     mutex, so it releases it at exit even when registered before the
//     Lock);
//   - an RLock released by Unlock (or a Lock released by RUnlock) is a
//     kind mismatch: on a sync.RWMutex the wrong-kinded release panics
//     or corrupts the reader count;
//   - sync.Mutex, sync.RWMutex, sync.WaitGroup, sync.Once, sync.Cond
//     and sync.Map must never be passed or copied by value — the copy
//     has its own state and the original's holders are invisible to it.
//
// The first two run on the framework's release-path engine
// (analysis.CheckReleases), which resclose shares: a hold is keyed by
// its rendered receiver and kind, and a kind mismatch is a hold that no
// release of its own kind, only one of the other kind, gives back.
//
// Lock-handoff helpers (acquire in one function, release in another)
// are rare and deliberate; they carry //wiclean:allow-lockbalance with
// the pairing documented.
package lockbalance

import (
	"fmt"
	"go/ast"
	"go/types"

	"wiclean/internal/analysis"
)

// Analyzer is the lock-balance check.
var Analyzer = &analysis.Analyzer{
	Name:      "lockbalance",
	Directive: "lockbalance",
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

// release maps each acquire method to its matching release.
var release = map[string]string{"Lock": "Unlock", "RLock": "RUnlock"}

// A hold is one kind of hold on one mutex: the rendered receiver and the
// acquire method, Lock or RLock.
type hold struct{ recv, kind string }

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		checkCopies(pass, f)
	}
	analysis.CheckReleases(pass, analysis.ReleaseRule[hold]{
		Visit: func(s *analysis.ReleaseScope[hold], n ast.Node, deferred bool) bool {
			switch n := n.(type) {
			case *ast.DeferStmt:
				return false // defer mu.Lock() takes the lock back at exit; it holds nothing here
			case *ast.CallExpr:
				if h, acquires, ok := lockCall(pass, n); ok && acquires && !deferred {
					s.Acquire(h, n.Pos())
				}
			}
			return true
		},
		Release: func(call *ast.CallExpr) (hold, bool) {
			h, acquires, ok := lockCall(pass, call)
			return h, ok && !acquires
		},
		Never: func(s *analysis.ReleaseScope[hold], h hold) string {
			// Released only by the other kind: a kind mismatch, which on a
			// sync.RWMutex panics or corrupts the reader count.
			other := hold{h.recv, "RLock"}
			if h.kind == "RLock" {
				other.kind = "Lock"
			}
			if !s.Releases(h) && s.Releases(other) {
				return fmt.Sprintf("%s.%s is released with %s: the release kind must match the acquire "+
					"(RLock pairs with RUnlock, Lock with Unlock)", h.recv, h.kind, release[other.kind])
			}
			return fmt.Sprintf("%s.%s is never released in this function: pair it with %s or a defer, "+
				"or annotate the lock handoff with //wiclean:allow-lockbalance <reason>", h.recv, h.kind, release[h.kind])
		},
		Unreleased: func(h hold, line int) string {
			return fmt.Sprintf("%s.%s is not released on the return path at line %d: unlock before "+
				"returning or use defer %s.%s()", h.recv, h.kind, line, h.recv, release[h.kind])
		},
	})
	return nil
}

// lockCall matches a call to one of sync.Mutex/sync.RWMutex's
// Lock/RLock/Unlock/RUnlock methods (including through embedding, which
// go/types resolves to the same method objects): the hold it takes or
// gives back, and whether it takes it.
func lockCall(pass *analysis.Pass, call *ast.CallExpr) (h hold, acquires, ok bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return hold{}, false, false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return hold{}, false, false
	}
	recv := types.ExprString(sel.X)
	switch fn.FullName() {
	case "(*sync.Mutex).Lock", "(*sync.RWMutex).Lock", "(*sync.RWMutex).RLock":
		return hold{recv, fn.Name()}, true, true
	case "(*sync.Mutex).Unlock", "(*sync.RWMutex).Unlock":
		return hold{recv, "Lock"}, false, true
	case "(*sync.RWMutex).RUnlock":
		return hold{recv, "RLock"}, false, true
	}
	return hold{}, false, false
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
					pass.Reportf(arg.Pos(),
						"sync.%s passed by value: the callee operates on a copy whose state "+
							"diverges from the original; pass a pointer", name)
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
					pass.Reportf(rhs.Pos(),
						"sync.%s copied by value: locks or counts held on the original are "+
							"invisible to the copy; share a pointer instead", name)
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
				pass.Reportf(field.Pos(),
					"sync.%s declared by value in a signature: the function receives a copy; "+
						"use *sync.%s", name, name)
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
