// Package wraperr enforces WiClean's error-propagation contract.
//
// The source layer's fetch path (internal/source) and the model store
// (internal/model) communicate failure through a small typed family —
// *source.FetchError, *model.StaleError and the source.ErrExhausted
// sentinel — that callers are documented to unwrap with errors.Is and
// errors.As (the miner's abort path and the CLIs' stale-model messages
// both depend on it). Two bug shapes silently break that contract:
//
//   - fmt.Errorf("...: %v", err) severs the Unwrap chain, so a wrapped
//     ErrExhausted stops matching errors.Is three frames up. Any
//     fmt.Errorf that formats an error operand must use %w for it.
//
//   - err == ErrExhausted (or a direct type assertion / type-switch case
//     on *FetchError / *StaleError) sees only the outermost error, so the
//     retry middleware's joined wrapping defeats it. Comparisons against
//     the typed family must go through errors.Is / errors.As.
//
// Plain nil checks (err == nil, fe != nil) are untouched.
package wraperr

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"wiclean/internal/analysis"
)

// Analyzer is the error-wrapping check.
var Analyzer = &analysis.Analyzer{
	Name:      "wraperr",
	Directive: "wraperr",
	Doc: "fmt.Errorf formatting an error operand must wrap it with %w, and comparisons against the " +
		"typed *FetchError/*StaleError/ErrExhausted family must use errors.Is/errors.As, never == or " +
		"direct type assertions",
	Run: run,
}

// typedErrors is the (package path, type name) family whose concrete
// types must only be reached through errors.As.
var typedErrors = map[[2]string]bool{
	{"wiclean/internal/source", "FetchError"}: true,
	{"wiclean/internal/model", "StaleError"}:  true,
}

// sentinelErrors is the (package path, variable name) family whose
// identity must only be tested through errors.Is.
var sentinelErrors = map[[2]string]bool{
	{"wiclean/internal/source", "ErrExhausted"}: true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkErrorf(pass, n)
			case *ast.BinaryExpr:
				checkComparison(pass, n)
			case *ast.TypeAssertExpr:
				checkAssertion(pass, n)
			case *ast.TypeSwitchStmt:
				checkTypeSwitch(pass, n)
			}
			return true
		})
	}
	return nil
}

// errType is the universe error interface.
var errType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// checkErrorf flags fmt.Errorf calls that format an error operand
// without a %w verb in the (constant) format string.
func checkErrorf(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "fmt" || obj.Name() != "Errorf" || len(call.Args) < 2 {
		return
	}
	tv, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return
	}
	format := constant.StringVal(tv.Value)
	if strings.Contains(format, "%w") {
		return
	}
	for _, arg := range call.Args[1:] {
		at, ok := pass.TypesInfo.Types[arg]
		if !ok || at.Type == nil {
			continue
		}
		if types.Implements(at.Type, errType) {
			pass.Reportf(call.Pos(),
				"fmt.Errorf formats error operand %s without %%w: the Unwrap chain is severed and "+
					"errors.Is/errors.As stop matching",
				types.ExprString(arg))
			return
		}
	}
}

// checkComparison flags ==/!= where either operand is a typed or sentinel
// family error, unless the other side is the nil literal.
func checkComparison(pass *analysis.Pass, bin *ast.BinaryExpr) {
	if bin.Op != token.EQL && bin.Op != token.NEQ {
		return
	}
	if isNil(pass, bin.X) || isNil(pass, bin.Y) {
		return
	}
	for _, side := range []ast.Expr{bin.X, bin.Y} {
		if name, ok := familyOperand(pass, side); ok {
			pass.Reportf(bin.Pos(),
				"direct %s comparison against %s: wrapped errors never match — use errors.Is "+
					"(or errors.As for the struct types)",
				bin.Op, name)
			return
		}
	}
}

// checkAssertion flags err.(*FetchError)-style assertions on family types.
func checkAssertion(pass *analysis.Pass, ta *ast.TypeAssertExpr) {
	if ta.Type == nil {
		return // x.(type) inside a type switch; handled there
	}
	if name, ok := familyType(pass.TypesInfo.Types[ta.Type].Type); ok {
		pass.Reportf(ta.Pos(),
			"type assertion on %s: a wrapped error never matches — use errors.As", name)
	}
}

// checkTypeSwitch flags `case *FetchError:` clauses on family types.
func checkTypeSwitch(pass *analysis.Pass, sw *ast.TypeSwitchStmt) {
	for _, clause := range sw.Body.List {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, texpr := range cc.List {
			tv, ok := pass.TypesInfo.Types[texpr]
			if !ok {
				continue
			}
			if name, ok := familyType(tv.Type); ok {
				pass.Reportf(cc.Pos(),
					"type switch case on %s: a wrapped error never matches — use errors.As", name)
			}
		}
	}
}

// familyOperand reports whether e is (a pointer to) a typed family error
// or one of the sentinel variables, returning a display name.
func familyOperand(pass *analysis.Pass, e ast.Expr) (string, bool) {
	if obj := pass.ObjectOf(e); obj != nil {
		if v, ok := obj.(*types.Var); ok && v.Pkg() != nil &&
			sentinelErrors[[2]string{v.Pkg().Path(), v.Name()}] {
			return v.Pkg().Name() + "." + v.Name(), true
		}
	}
	if tv, ok := pass.TypesInfo.Types[e]; ok {
		return familyType(tv.Type)
	}
	return "", false
}

// familyType reports whether t is (a pointer to) one of the typed family
// structs, returning a display name.
func familyType(t types.Type) (string, bool) {
	if t == nil {
		return "", false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	} else if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return "", false
	}
	if typedErrors[[2]string{obj.Pkg().Path(), obj.Name()}] {
		return "*" + obj.Pkg().Name() + "." + obj.Name(), true
	}
	return "", false
}

// isNil reports whether e is the untyped nil literal.
func isNil(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.IsNil()
}
