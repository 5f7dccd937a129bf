// Package tracectx enforces trace-context propagation.
//
// internal/obs/trace threads the current span through context.Context:
// StartSpan, StartRoot and StartRemote all return a derived context that
// every downstream call must receive, or the spans started below attach
// to the wrong parent — the trace tree silently flattens and the
// cross-process stitch (traceparent is injected from the context) loses
// its chain. The returned context is therefore load-bearing, and
// discarding it is almost always a bug.
//
// The analyzer flags every call to a trace span constructor whose
// returned context is dropped: assigned to the blank identifier, bound
// to a blank var, or thrown away entirely in an expression, go or defer
// statement. A genuine leaf span — one whose subtree runs on worker
// goroutines fed by a job queue rather than a child context — carries
// //wiclean:allow-tracectx with the rationale.
package tracectx

import (
	"go/ast"
	"go/types"

	"wiclean/internal/analysis"
)

// TracePkg is the import path of the span constructors the analyzer
// tracks. Calls inside the package itself are exempt: the implementation
// legitimately builds spans without rewrapping its own context.
const TracePkg = "wiclean/internal/obs/trace"

// constructors are the trace-package functions and methods returning a
// derived context as their first result.
var constructors = map[string]bool{
	"StartSpan":   true,
	"StartRoot":   true,
	"StartRemote": true,
}

// Analyzer is the trace-context propagation check.
var Analyzer = &analysis.Analyzer{
	Name:      "tracectx",
	Directive: "tracectx",
	Doc: "the context returned by trace.StartSpan/StartRoot/StartRemote must be propagated, " +
		"not discarded: child spans parent through it and outbound traceparent headers read it",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Path() == TracePkg {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				// ctx, sp := trace.StartSpan(...) — tuple form only; a span
				// constructor cannot appear in a multi-value RHS list.
				if len(n.Rhs) == 1 && isBlank(n.Lhs[0]) {
					report(pass, n.Rhs[0], "assigned to _")
				}
				return true
			case *ast.ValueSpec:
				if len(n.Values) == 1 && len(n.Names) > 0 && n.Names[0].Name == "_" {
					report(pass, n.Values[0], "assigned to _")
				}
				return true
			case *ast.ExprStmt:
				report(pass, n.X, "discarded")
				return true
			case *ast.GoStmt:
				report(pass, n.Call, "discarded")
				return true
			case *ast.DeferStmt:
				report(pass, n.Call, "discarded")
				return true
			}
			return true
		})
	}
	return nil
}

// isBlank reports whether the expression is the blank identifier.
func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// report flags e when it is a span-constructor call.
func report(pass *analysis.Pass, e ast.Expr, how string) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return
	}
	name, ok := constructorName(pass, call)
	if !ok {
		return
	}
	pass.Reportf(call.Pos(),
		"the context returned by trace.%s is %s: propagate it so child spans and outbound "+
			"traceparent headers see this span (annotate //wiclean:allow-tracectx <reason> for a deliberate leaf span)",
		name, how)
}

// constructorName resolves the call target and reports whether it is one
// of the trace package's span constructors.
func constructorName(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != TracePkg {
		return "", false
	}
	if !constructors[fn.Name()] {
		return "", false
	}
	return fn.Name(), true
}
