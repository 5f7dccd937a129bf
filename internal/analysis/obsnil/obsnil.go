// Package obsnil guards the nil-safety contract of the observability
// layer.
//
// Every *obs.Registry field and parameter in the tree may legitimately be
// nil — observability disabled — and instrumented packages call into it
// unconditionally. That only works while (a) consumers touch the registry
// and its metric handles exclusively through methods, and (b) every
// exported pointer-receiver method inside package obs checks its receiver
// against nil before touching receiver state. One unguarded method added
// to obs, or one field reached around the method set, reintroduces the
// panic the whole design exists to prevent — and only on the
// observability-disabled configuration that unit tests exercise least.
//
// The analyzer therefore flags:
//   - outside package obs: selecting a struct field (rather than calling a
//     method) on any obs handle type, and dereferencing (*r) a handle
//     pointer — both panic on nil, and the dereference also copies the
//     registry's mutex
//   - inside package obs: an exported pointer-receiver method on a handle
//     type that reads or writes a receiver field with no preceding
//     receiver-nil check
package obsnil

import (
	"go/ast"
	"go/token"
	"go/types"

	"wiclean/internal/analysis"
)

// ObsPath is the observability package whose handle types are nil-safe.
const ObsPath = "wiclean/internal/obs"

// handleTypes are the nil-safe types of the obs method set.
var handleTypes = map[string]bool{
	"Registry": true, "Counter": true, "Gauge": true, "Histogram": true,
}

// Analyzer is the obs nil-safety check.
var Analyzer = &analysis.Analyzer{
	Name:      "obsnil",
	Directive: "obsnil",
	Doc: "obs handles (*obs.Registry and the metric types it hands out) must be consumed through " +
		"their nil-safe method set; inside package obs every exported pointer-receiver method must " +
		"nil-check its receiver before touching receiver fields",
	Run: run,
}

func run(pass *analysis.Pass) error {
	inObs := pass.Pkg.Path() == ObsPath
	for _, f := range pass.Files {
		if inObs {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok {
					checkMethodGuard(pass, fd)
				}
			}
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				checkFieldAccess(pass, n)
			case *ast.StarExpr:
				checkDeref(pass, n)
			}
			return true
		})
	}
	return nil
}

// isHandle reports whether t is (a pointer to) one of the obs handle types.
func isHandle(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == ObsPath && handleTypes[obj.Name()]
}

// checkFieldAccess flags x.f where x is an obs handle and f resolves to a
// struct field rather than a method.
func checkFieldAccess(pass *analysis.Pass, sel *ast.SelectorExpr) {
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return
	}
	if !isHandle(s.Recv()) {
		return
	}
	pass.Reportf(sel.Sel.Pos(),
		"direct field access %s on obs handle %s: panics when observability is disabled (nil handle) — "+
			"use the nil-safe method set",
		sel.Sel.Name, s.Recv().String())
}

// checkDeref flags *x where x is a pointer to an obs handle: it panics on
// a nil handle and copies the registry's lock state.
func checkDeref(pass *analysis.Pass, star *ast.StarExpr) {
	tv, ok := pass.TypesInfo.Types[star.X]
	if !ok {
		return
	}
	if _, isPtr := tv.Type.(*types.Pointer); !isPtr {
		return // a type expression like *obs.Registry, not a dereference
	}
	if !isHandle(tv.Type) {
		return
	}
	pass.Reportf(star.Pos(),
		"dereferencing obs handle %s: panics when observability is disabled and copies its lock state — "+
			"pass the pointer through",
		tv.Type.String())
}

// checkMethodGuard enforces, inside package obs, that exported
// pointer-receiver methods on handle types nil-check the receiver before
// the first receiver-field access.
func checkMethodGuard(pass *analysis.Pass, fd *ast.FuncDecl) {
	if fd.Recv == nil || fd.Body == nil || !fd.Name.IsExported() {
		return
	}
	if len(fd.Recv.List) != 1 || len(fd.Recv.List[0].Names) != 1 {
		return // unnamed receiver cannot reach fields
	}
	recvIdent := fd.Recv.List[0].Names[0]
	recvObj := pass.TypesInfo.Defs[recvIdent]
	if recvObj == nil {
		return
	}
	if _, isPtr := recvObj.Type().(*types.Pointer); !isPtr || !isHandle(recvObj.Type()) {
		return
	}

	firstField := token.NoPos
	guard := token.NoPos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if s, ok := pass.TypesInfo.Selections[n]; ok && s.Kind() == types.FieldVal {
				if id, ok := n.X.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == recvObj {
					if !firstField.IsValid() || n.Pos() < firstField {
						firstField = n.Pos()
					}
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				if isReceiverNilCheck(pass, n, recvObj) && (!guard.IsValid() || n.Pos() < guard) {
					guard = n.Pos()
				}
			}
		}
		return true
	})
	if !firstField.IsValid() {
		return // no receiver state touched; nothing to guard
	}
	if guard.IsValid() && guard < firstField {
		return
	}
	pass.Reportf(fd.Name.Pos(),
		"exported method %s.%s touches receiver fields without a preceding nil-receiver check: "+
			"the obs method set must be nil-safe",
		recvTypeName(recvObj.Type()), fd.Name.Name)
}

// isReceiverNilCheck reports whether bin compares the receiver against nil.
func isReceiverNilCheck(pass *analysis.Pass, bin *ast.BinaryExpr, recvObj types.Object) bool {
	matches := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && pass.TypesInfo.Uses[id] == recvObj
	}
	nilLit := func(e ast.Expr) bool {
		tv, ok := pass.TypesInfo.Types[e]
		return ok && tv.IsNil()
	}
	return (matches(bin.X) && nilLit(bin.Y)) || (matches(bin.Y) && nilLit(bin.X))
}

// recvTypeName renders *Registry-style receiver names for diagnostics.
func recvTypeName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		if named, ok := ptr.Elem().(*types.Named); ok {
			return "*" + named.Obj().Name()
		}
	}
	return t.String()
}
