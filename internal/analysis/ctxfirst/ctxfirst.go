// Package ctxfirst enforces the context-plumbing conventions of WiClean's
// I/O-facing packages.
//
// internal/source and internal/plugin are the two packages whose exported
// surface performs cancellable work (network fetches, retry sleeps, HTTP
// handling). Their convention — standard Go, but load-bearing here
// because source.Fetcher, the fault source and the Store adapter wrap
// sources of the same method shape — is that an exported function taking
// a context.Context takes it as the first parameter, and that contexts
// flow through call chains rather than being stored in structs (a stored
// context outlives its cancellation scope and silently decouples retries
// from the caller's deadline).
//
// The one legitimate stored context in the tree — source.Store bridging
// the context-free mining.Store interface — carries
// //wiclean:allow-ctxfirst with its rationale.
package ctxfirst

import (
	"go/ast"
	"go/types"

	"wiclean/internal/analysis"
)

// Packages are the import paths the convention applies to.
var Packages = []string{
	"wiclean/internal/source",
	"wiclean/internal/plugin",
}

// Analyzer is the context-plumbing check.
var Analyzer = &analysis.Analyzer{
	Name:      "ctxfirst",
	Directive: "ctxfirst",
	Doc: "in internal/source and internal/plugin, exported functions taking a context.Context must " +
		"take it as the first parameter, and no struct may store a context.Context",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !applies(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				checkSignature(pass, n.Name, n.Type)
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					if ft, ok := m.Type.(*ast.FuncType); ok && len(m.Names) == 1 {
						checkSignature(pass, m.Names[0], ft)
					}
				}
			case *ast.StructType:
				checkStructFields(pass, n)
			}
			return true
		})
	}
	return nil
}

func applies(path string) bool {
	for _, p := range Packages {
		if path == p {
			return true
		}
	}
	return false
}

// isContext reports whether the expression's type is context.Context.
func isContext(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// checkSignature flags exported functions and interface methods whose
// context.Context parameter is not the first.
func checkSignature(pass *analysis.Pass, name *ast.Ident, ft *ast.FuncType) {
	if !name.IsExported() || ft.Params == nil {
		return
	}
	pos := 0 // parameter index, counting each name in grouped fields
	for fi, field := range ft.Params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if isContext(pass, field.Type) && !(fi == 0 && pos == 0) {
			pass.Reportf(field.Pos(),
				"%s takes context.Context as parameter %d: the context must be the first parameter",
				name.Name, pos+1)
			return
		}
		pos += n
	}
}

// checkStructFields flags struct fields of type context.Context.
func checkStructFields(pass *analysis.Pass, st *ast.StructType) {
	for _, field := range st.Fields.List {
		if !isContext(pass, field.Type) {
			continue
		}
		pass.Reportf(field.Pos(),
			"struct stores a context.Context: contexts are call-scoped — pass them as parameters "+
				"(annotate //wiclean:allow-ctxfirst <reason> when bridging a context-free interface)")
	}
}
