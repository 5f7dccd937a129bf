// Package resclose flags OS-backed resources acquired but not released
// on every path.
//
// The serving and resilience layers hold four kinds of handles whose
// leak modes are all slow and production-only: an http.Response.Body
// left open pins its connection and starves the client's pool, an
// os.File exhausts descriptors, a time.Ticker keeps a runtime timer (and
// the goroutine selecting on it) alive forever, and an unclosed
// net.Listener holds its port. The analyzer tracks a variable assigned
// from a call that yields one of those types and requires, within the
// same function scope:
//
//   - a release — Close for files, listeners and response bodies
//     (resp.Body.Close()), Stop for tickers — reachable on every return
//     path: a defer or an inline release between the acquisition and the
//     return (defer f.Close() closes the value f held when the defer was
//     registered, so one registered before the acquisition does not
//     count; a deferred closure reads f at exit, wherever it sits);
//   - or an ownership transfer: returning the value, passing it to a
//     call, storing, sending or capturing it hands the close obligation
//     to the receiver and exempts the variable entirely.
//
// Returns guarded by an error condition (`if err != nil { return err }`)
// are skipped: on the error path the canonical stdlib contract is that
// the resource was never acquired (http.Response being the documented
// exception — its non-nil-Body-on-error cases are rare enough to trade
// for not flagging every Do call site). A deliberate leak — say a
// process-lifetime ticker — carries //wiclean:allow-resclose <reason>.
// Both rules run on the framework's release-path engine
// (analysis.CheckReleases), which lockbalance shares.
package resclose

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"wiclean/internal/analysis"
)

// Analyzer is the resource-release check.
var Analyzer = &analysis.Analyzer{
	Name:      "resclose",
	Directive: "resclose",
	Doc: "an http.Response.Body, os.File, time.Ticker or net.Listener acquired in a function " +
		"must be closed/stopped on every return path or handed off (returned, passed, stored); " +
		"deliberate process-lifetime resources carry //wiclean:allow-resclose <reason>",
	Run: run,
}

type kind int

const (
	kindFile kind = iota
	kindTicker
	kindResponse
	kindListener
)

// releaseVerb names the required call for messages.
func (k kind) releaseVerb() string {
	switch k {
	case kindTicker:
		return "Stop()"
	case kindResponse:
		return "Body.Close()"
	}
	return "Close()"
}

// run tracks each variable assigned from a call that yields a resource,
// keyed by its object.
func run(pass *analysis.Pass) error {
	analysis.CheckReleases(pass, analysis.ReleaseRule[types.Object]{
		Visit: func(s *analysis.ReleaseScope[types.Object], n ast.Node, _ bool) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Rhs) == 1 {
					if _, isCall := n.Rhs[0].(*ast.CallExpr); isCall {
						for _, lhs := range n.Lhs {
							if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" && tracked(pass, id) {
								s.Acquire(pass.ObjectOf(id), n.Pos())
							}
						}
					}
				}
				// RHS identifiers of tracked type escape (stored elsewhere).
				for _, rhs := range n.Rhs {
					if _, isCall := rhs.(*ast.CallExpr); !isCall {
						markEscapes(pass, rhs, s)
					}
				}
			case *ast.CallExpr:
				// A tracked value passed as an argument is handed off.
				for _, arg := range n.Args {
					markEscapes(pass, arg, s)
				}
			case *ast.ReturnStmt:
				for _, res := range n.Results {
					markEscapes(pass, res, s)
				}
			case *ast.SendStmt:
				markEscapes(pass, n.Value, s)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					markEscapes(pass, n.X, s)
				}
			case *ast.CompositeLit:
				markEscapes(pass, n, s)
			case *ast.IfStmt:
				if errGuarded(pass, n.Cond) {
					s.Exempt(n.Body)
				}
			case *ast.FuncLit:
				// A closure capturing the resource may close it later —
				// ownership moved.
				markCaptured(pass, n, s)
			}
			return true
		},
		Release:         func(call *ast.CallExpr) (types.Object, bool) { return releaseCall(pass, call) },
		DeferBindsValue: true, // defer f.Close() closes what f held when it was registered
		Never: func(_ *analysis.ReleaseScope[types.Object], obj types.Object) string {
			name, verb := obj.Name(), verbOf(obj)
			return fmt.Sprintf("%s is never closed in this function and never handed off: call %s.%s on every "+
				"path (annotate //wiclean:allow-resclose <reason> for a deliberate "+
				"process-lifetime resource)", name, name, verb)
		},
		Unreleased: func(obj types.Object, line int) string {
			name := obj.Name()
			return fmt.Sprintf("%s is not closed on the return path at line %d: release it before returning "+
				"or defer %s.%s right after the error check", name, line, name, verbOf(obj))
		},
	})
	return nil
}

// verbOf names the call that releases obj, a tracked resource.
func verbOf(obj types.Object) string {
	k, _ := resourceKind(obj.Type())
	return k.releaseVerb()
}

// releaseCall matches f.Close(), l.Close(), t.Stop() and
// resp.Body.Close(), returning the tracked variable's object.
func releaseCall(pass *analysis.Pass, call *ast.CallExpr) (types.Object, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	method := sel.Sel.Name
	if method != "Close" && method != "Stop" {
		return nil, false
	}
	switch x := sel.X.(type) {
	case *ast.Ident:
		obj := pass.ObjectOf(x)
		if obj == nil {
			return nil, false
		}
		if k, ok := resourceKind(obj.Type()); ok && k != kindResponse {
			return obj, true
		}
	case *ast.SelectorExpr:
		// resp.Body.Close(): the receiver chain's base must be a tracked
		// http.Response and the field its Body.
		base, ok := x.X.(*ast.Ident)
		if !ok || x.Sel.Name != "Body" || method != "Close" {
			return nil, false
		}
		obj := pass.ObjectOf(base)
		if obj == nil {
			return nil, false
		}
		if k, ok := resourceKind(obj.Type()); ok && k == kindResponse {
			return obj, true
		}
	}
	return nil, false
}

// markEscapes hands off the tracked identifiers appearing as values in
// the expression. Selecting a field or method off the resource
// (resp.StatusCode, f.Name()) is a use, not a hand-off, so those
// subtrees are skipped unless the selected value is itself tracked.
func markEscapes(pass *analysis.Pass, e ast.Node, s *analysis.ReleaseScope[types.Object]) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			markIfTracked(pass, n, s)
		case *ast.SelectorExpr:
			if tv, ok := pass.TypesInfo.Types[n]; ok && tv.Type != nil {
				if _, tracked := resourceKind(tv.Type); tracked {
					return true
				}
			}
			return false
		case *ast.FuncLit:
			markCaptured(pass, n, s)
			return false
		}
		return true
	})
}

// markCaptured hands off every tracked identifier anywhere in a closure
// body — the closure may release it at an arbitrary later time, so
// ownership has moved even when the use is a method call.
func markCaptured(pass *analysis.Pass, e ast.Node, s *analysis.ReleaseScope[types.Object]) {
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			markIfTracked(pass, id, s)
		}
		return true
	})
}

// markIfTracked hands off the identifier's object when its type is one
// of the tracked resources.
func markIfTracked(pass *analysis.Pass, id *ast.Ident, s *analysis.ReleaseScope[types.Object]) {
	if tracked(pass, id) {
		s.HandOff(pass.ObjectOf(id))
	}
}

// tracked reports whether the identifier denotes a tracked resource.
func tracked(pass *analysis.Pass, id *ast.Ident) bool {
	obj := pass.ObjectOf(id)
	if obj == nil {
		return false
	}
	_, ok := resourceKind(obj.Type())
	return ok
}

// errGuarded reports whether the condition mentions an error-typed
// value — the `if err != nil` family.
func errGuarded(pass *analysis.Pass, cond ast.Expr) bool {
	errType := types.Universe.Lookup("error").Type()
	guarded := false
	ast.Inspect(cond, func(n ast.Node) bool {
		e, ok := n.(ast.Expr)
		if !ok || guarded {
			return !guarded
		}
		if tv, ok := pass.TypesInfo.Types[e]; ok && tv.Type != nil {
			if types.Identical(tv.Type, errType) {
				guarded = true
			}
		}
		return !guarded
	})
	return guarded
}

// resourceKind classifies a type as one of the tracked resources.
func resourceKind(t types.Type) (kind, bool) {
	if t == nil {
		return 0, false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return 0, false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return 0, false
	}
	switch {
	case obj.Pkg().Path() == "os" && obj.Name() == "File":
		return kindFile, true
	case obj.Pkg().Path() == "time" && obj.Name() == "Ticker":
		return kindTicker, true
	case obj.Pkg().Path() == "net/http" && obj.Name() == "Response":
		return kindResponse, true
	case obj.Pkg().Path() == "net" && obj.Name() == "Listener":
		return kindListener, true
	case obj.Pkg().Path() == "net" && obj.Name() == "TCPListener":
		return kindListener, true
	case obj.Pkg().Path() == "net" && obj.Name() == "UnixListener":
		return kindListener, true
	}
	return 0, false
}
