// Package analysis is WiClean's static-analysis framework: a minimal,
// dependency-free reimplementation of the golang.org/x/tools/go/analysis
// Analyzer/Pass/Diagnostic vocabulary, plus what every project analyzer
// shares: the //wiclean:allow-* escape hatch, one object lookup, and one
// release-path engine (CheckReleases).
//
// The repo vendors no third-party modules (the build must stay hermetic:
// `go build ./...` with an empty module cache and no network), so the
// x/tools framework itself is out of reach. This package mirrors its shape
// closely enough that each analyzer is a mechanical port should the
// dependency ever be adopted: an Analyzer bundles a name, a doc string, a
// directive and a Run function; Run receives a Pass holding one
// type-checked package and reports Diagnostics through it. Run (the
// function) is the one way to apply an analyzer: both drivers call it —
// internal/analysis/driver, which loads packages via `go list -export`
// for the standalone cmd/wiclean-lint binary and the in-tree self-run
// test, and internal/analysis/analysistest, which type-checks
// testdata/src fixture trees for analyzer unit tests.
//
// # Escape hatch
//
// Run drops a finding when its line, or the line immediately above it,
// carries the directive comment
//
//	//wiclean:allow-<directive> <reason>
//
// where <directive> is the analyzer's Directive (allow-nondet for the
// determinism analyzer). The reason is mandatory: a bare directive does
// not suppress anything and is itself reported, so every exemption in the
// tree documents why it is sound. Analyzers never consult directives
// themselves. See ARCHITECTURE.md §5 for the per-analyzer rationale.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one static check. It mirrors
// golang.org/x/tools/go/analysis.Analyzer minus facts and dependencies,
// which no WiClean analyzer needs.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flag names. It must
	// be a valid Go identifier.
	Name string

	// Doc is the one-paragraph documentation shown by `wiclean-lint -list`
	// and asserted non-empty by the checks registry test.
	Doc string

	// Directive names the //wiclean:allow-<Directive> suffix that exempts
	// this analyzer's findings (see Run).
	Directive string

	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Pass presents one type-checked package to an Analyzer's Run function.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	allowed map[fileLine]bool // lines a reasoned directive exempts
	diags   []Diagnostic
}

// fileLine addresses one source line.
type fileLine struct {
	file string
	line int
}

// Reportf reports a formatted diagnostic at pos, unless a reasoned
// directive exempts pos's line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	at := p.Fset.Position(pos)
	if p.allowed[fileLine{at.Filename, at.Line}] {
		return
	}
	p.diags = append(p.diags, Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding, positioned within Pass.Fset.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// DirectivePrefix is the comment prefix of every escape-hatch directive.
const DirectivePrefix = "//wiclean:allow-"

// Run applies p.Analyzer to p's package and returns its findings: one
// for each bare //wiclean:allow-<Directive> in the files, then each one
// the analyzer reports on a line that no reasoned directive exempts.
func Run(p *Pass) ([]Diagnostic, error) {
	p.allowed = map[fileLine]bool{}
	var bare []Diagnostic
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, DirectivePrefix)
				if !ok {
					continue
				}
				// A nested comment marker ends the directive: it lets test
				// fixtures append `// want ...` expectations after one.
				rest, _, _ = strings.Cut(rest, "//")
				name, reason, _ := strings.Cut(rest, " ")
				if name != p.Analyzer.Directive {
					continue
				}
				if strings.TrimSpace(reason) == "" {
					bare = append(bare, Diagnostic{Pos: c.Pos(), Analyzer: p.Analyzer.Name,
						Message: DirectivePrefix + name + " needs a reason explaining why the exemption is sound"})
					continue
				}
				end := p.Fset.Position(c.End())
				p.allowed[fileLine{end.Filename, end.Line}] = true
				p.allowed[fileLine{end.Filename, end.Line + 1}] = true
			}
		}
	}
	p.diags = nil
	if err := p.Analyzer.Run(p); err != nil {
		return nil, err
	}
	return append(bare, p.diags...), nil
}

// ObjectOf returns the object an identifier, or a selector's selected
// name, denotes; nil for any other expression.
func (p *Pass) ObjectOf(e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.Ident:
		return p.TypesInfo.ObjectOf(e)
	case *ast.SelectorExpr:
		return p.TypesInfo.ObjectOf(e.Sel)
	}
	return nil
}

// FuncBodies calls f with the body of every function declaration in the
// pass's files, then with the body of each function literal inside it,
// outermost first. Each is its own scope: a closure runs at a time of its
// own, so what it acquires, loads or spawns is its own business.
func (p *Pass) FuncBodies(f func(body *ast.BlockStmt)) {
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			f(fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					f(lit.Body)
				}
				return true
			})
		}
	}
}

// NewInfo returns a types.Info with every map analyzers consume
// allocated. Drivers share it so all passes see the same field set.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}
