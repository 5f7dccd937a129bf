// Package determinism rejects nondeterminism in WiClean's
// byte-reproducible packages.
//
// The mining pipeline's central guarantee (DESIGN.md §5) is that
// Algorithm 1/2 output is byte-identical for every JoinWorkers count, and
// the model store's (PR 4) that save→load→save is an identity. Both hold
// only while the deterministic packages below never consult wall-clock
// time, an unseeded random source, or Go's randomized map iteration order
// on an output path. Differential tests catch violations only on the
// paths they happen to drive; this analyzer rejects them at lint time.
//
// Flagged inside Packages:
//   - time.Now / time.Since (wall clock)
//   - package-level math/rand and math/rand/v2 functions (process-global,
//     randomly seeded source) and any use of crypto/rand
//   - a `range` over a map whose body appends to an outer slice or prints,
//     with no sort of that slice anywhere after the loop in the same block
//
// Timing that feeds only the obs metrics registry — never mined output —
// is the one legitimate exception; such sites carry
// //wiclean:allow-nondet <reason>, and the reason is mandatory.
package determinism

import (
	"go/ast"
	"go/types"
	"strings"

	"wiclean/internal/analysis"
)

// Packages are the import paths whose output must be byte-reproducible:
// the miner and its relational engine, the sliding-window refinement
// loop, pattern canonicalization, the persistent model encoding, and the
// taxonomy they all key on.
var Packages = []string{
	"wiclean/internal/mining",
	"wiclean/internal/relational",
	"wiclean/internal/windows",
	"wiclean/internal/pattern",
	"wiclean/internal/model",
	"wiclean/internal/taxonomy",
}

// Analyzer is the determinism check.
var Analyzer = &analysis.Analyzer{
	Name:      "determinism",
	Directive: "nondet",
	Doc: "forbid wall-clock reads, unseeded randomness and unsorted map iteration output " +
		"in the deterministic packages (mining, relational, windows, pattern, model, taxonomy); " +
		"obs-only timing carries //wiclean:allow-nondet <reason>",
	Run: run,
}

// seededConstructors are the math/rand entry points that require an
// explicit seed or source and are therefore reproducible.
var seededConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true, "NewZipf": true,
}

func run(pass *analysis.Pass) error {
	if !isDeterministic(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				checkSelector(pass, n)
			case *ast.BlockStmt:
				checkStmtList(pass, n.List)
			case *ast.CaseClause:
				checkStmtList(pass, n.Body)
			case *ast.CommClause:
				checkStmtList(pass, n.Body)
			}
			return true
		})
	}
	return nil
}

func isDeterministic(path string) bool {
	for _, p := range Packages {
		if path == p {
			return true
		}
	}
	return false
}

// checkSelector flags wall-clock and global-randomness references,
// whether called or merely captured as a function value.
func checkSelector(pass *analysis.Pass, sel *ast.SelectorExpr) {
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return
	}
	if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
		return // methods (e.g. on an explicitly seeded *rand.Rand) are fine
	}
	switch obj.Pkg().Path() {
	case "time":
		if name := obj.Name(); name == "Now" || name == "Since" {
			pass.Reportf(sel.Pos(),
				"time.%s in deterministic package %s: mined output must not depend on the wall clock "+
					"(route timing through obs or annotate //wiclean:allow-nondet <reason>)",
				name, pass.Pkg.Path())
		}
	case "math/rand", "math/rand/v2":
		if !seededConstructors[obj.Name()] {
			pass.Reportf(sel.Pos(),
				"global %s.%s in deterministic package %s: use an explicitly seeded *rand.Rand",
				obj.Pkg().Name(), obj.Name(), pass.Pkg.Path())
		}
	case "crypto/rand":
		pass.Reportf(sel.Pos(),
			"crypto/rand.%s in deterministic package %s: cryptographic randomness is never reproducible",
			obj.Name(), pass.Pkg.Path())
	}
}

// checkStmtList scans one statement list for map-range loops that emit
// order-dependent output with no sort between the loop and the end of the
// list. Scanning statement lists (rather than lone RangeStmts) keeps the
// "intervening sort" lookahead aligned with actual control flow: the sort
// must dominate every later use, which following statements in the same
// block do.
func checkStmtList(pass *analysis.Pass, list []ast.Stmt) {
	for i, stmt := range list {
		rng, ok := stmt.(*ast.RangeStmt)
		if !ok {
			continue
		}
		tv, ok := pass.TypesInfo.Types[rng.X]
		if !ok {
			continue
		}
		if _, ok := tv.Type.Underlying().(*types.Map); !ok {
			continue
		}
		checkMapRange(pass, rng, list[i+1:])
	}
}

// checkMapRange flags rng when its body appends to a slice declared
// outside the loop (or prints) and no later statement in the enclosing
// list sorts that slice.
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt, tail []ast.Stmt) {
	var appendTargets []ast.Expr
	printed := false
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i < len(n.Lhs) && isAppendCall(pass, rhs) && !declaredWithin(pass, n.Lhs[i], rng.Body) {
					appendTargets = append(appendTargets, n.Lhs[i])
				}
			}
		case *ast.CallExpr:
			if isPrintCall(pass, n) {
				printed = true
			}
		}
		return true
	})
	if printed {
		pass.Reportf(rng.Pos(),
			"printing inside a range over a map in deterministic package %s: iteration order is randomized",
			pass.Pkg.Path())
	}
	for _, target := range appendTargets {
		if sortedAfter(pass, target, tail) {
			continue
		}
		pass.Reportf(rng.Pos(),
			"appending to %s inside a range over a map with no later sort in deterministic package %s: "+
				"iteration order is randomized — collect and sort, or iterate a sorted key slice",
			types.ExprString(target), pass.Pkg.Path())
		return // one finding per loop is enough
	}
}

// isAppendCall reports whether e is a call to the append builtin.
func isAppendCall(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.TypesInfo.Uses[id]
	b, ok := obj.(*types.Builtin)
	return ok && b.Name() == "append"
}

// declaredWithin reports whether e is an identifier whose object is
// declared inside node — a per-iteration local whose order never escapes.
func declaredWithin(pass *analysis.Pass, e ast.Expr, node ast.Node) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false // selector/index targets always outlive the loop
	}
	obj := pass.TypesInfo.ObjectOf(id)
	return obj != nil && obj.Pos() >= node.Pos() && obj.Pos() <= node.End()
}

// isPrintCall reports whether call writes human-visible output: the
// fmt.Print/Fprint families.
func isPrintCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "fmt" {
		return false
	}
	return strings.HasPrefix(obj.Name(), "Print") || strings.HasPrefix(obj.Name(), "Fprint")
}

// sortedAfter reports whether any statement in tail sorts target: a call
// to the sort or slices packages, or to any function whose name contains
// "Sort" (project helpers like action.SortByTime), mentioning target.
func sortedAfter(pass *analysis.Pass, target ast.Expr, tail []ast.Stmt) bool {
	var obj types.Object
	if _, ok := target.(*ast.Ident); ok {
		obj = pass.ObjectOf(target)
	}
	name := types.ExprString(target)
	for _, stmt := range tail {
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isSortFunc(pass, call.Fun) {
				return true
			}
			for _, arg := range call.Args {
				if mentions(pass, arg, obj, name) {
					found = true
					return false
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// isSortFunc reports whether fun names a sorting function.
func isSortFunc(pass *analysis.Pass, fun ast.Expr) bool {
	switch f := fun.(type) {
	case *ast.Ident:
		return strings.Contains(f.Name, "Sort")
	case *ast.SelectorExpr:
		if obj := pass.TypesInfo.Uses[f.Sel]; obj != nil && obj.Pkg() != nil {
			if p := obj.Pkg().Path(); p == "sort" || p == "slices" {
				return true
			}
		}
		return strings.Contains(f.Sel.Name, "Sort")
	}
	return false
}

// mentions reports whether expr references obj (by identity) or, for
// non-identifier targets, renders to the same source text.
func mentions(pass *analysis.Pass, expr ast.Expr, obj types.Object, name string) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if obj != nil {
			if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
				found = true
				return false
			}
		} else if e, ok := n.(ast.Expr); ok && types.ExprString(e) == name {
			found = true
			return false
		}
		return true
	})
	return found
}
