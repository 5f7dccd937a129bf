// Package driver loads and type-checks Go packages for WiClean's
// analyzers without golang.org/x/tools: package metadata and compiled
// export data come from `go list -export -json -deps`, sources are parsed
// with go/parser and checked with go/types against an export-data
// importer. The result is one analysis.Pass per target package, exactly
// what cmd/wiclean-lint and the in-tree self-run test need.
//
// The loader deliberately analyzes each package's GoFiles (the files the
// compiler would build, test files excluded): the determinism and
// error-handling invariants the suite enforces are production-code
// contracts, so cmd/wiclean-lint and the self-run test check non-test
// files only.
package driver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"wiclean/internal/analysis"
)

// A Package is one loaded, type-checked target package.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
}

// listPackage is the subset of `go list -json` output the loader reads.
type listPackage struct {
	ImportPath string
	Dir        string
	Export     string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	Error      *struct{ Err string }
}

// Load lists patterns (plus their dependency closure) in the module
// rooted at dir, then parses and type-checks every non-dependency
// package. Imports resolve through the compiled export data `go list
// -export` leaves in the build cache, so loading works offline and never
// re-type-checks dependencies from source.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,Export,Standard,DepOnly,GoFiles,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("driver: go list %s: %w\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	exports := map[string]string{}
	var targets []listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("driver: decoding go list output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("driver: go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			targets = append(targets, p)
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("driver: no export data for %q", path)
		}
		return os.Open(f)
	})

	var pkgs []*Package
	for _, t := range targets {
		if len(t.GoFiles) == 0 {
			continue
		}
		var files []*ast.File
		for _, name := range t.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("driver: parsing %s: %w", name, err)
			}
			files = append(files, f)
		}
		info := analysis.NewInfo()
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(t.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("driver: type-checking %s: %w", t.ImportPath, err)
		}
		pkgs = append(pkgs, &Package{
			ImportPath: t.ImportPath,
			Dir:        t.Dir,
			Fset:       fset,
			Files:      files,
			Pkg:        tpkg,
			Info:       info,
		})
	}
	return pkgs, nil
}

// Run applies every analyzer to every package and returns the combined
// findings in (file, line, column, analyzer) order — deterministic output
// for a deterministic-output linter.
func Run(analyzers []*analysis.Analyzer, pkgs []*Package) ([]analysis.Diagnostic, error) {
	var diags []analysis.Diagnostic
	var fset *token.FileSet
	for _, pkg := range pkgs {
		fset = pkg.Fset
		for _, a := range analyzers {
			found, err := analysis.Run(&analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Pkg,
				TypesInfo: pkg.Info,
			})
			if err != nil {
				return nil, fmt.Errorf("driver: %s on %s: %w", a.Name, pkg.ImportPath, err)
			}
			diags = append(diags, found...)
		}
	}
	if fset != nil {
		sort.SliceStable(diags, func(i, j int) bool {
			pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
			if pi.Filename != pj.Filename {
				return pi.Filename < pj.Filename
			}
			if pi.Line != pj.Line {
				return pi.Line < pj.Line
			}
			if pi.Column != pj.Column {
				return pi.Column < pj.Column
			}
			return diags[i].Analyzer < diags[j].Analyzer
		})
	}
	return diags, nil
}

// Format renders one diagnostic the way every Go tool does:
// path:line:col: message (analyzer). Paths are relative to dir when
// possible, keeping CI logs and editors happy.
func Format(fset *token.FileSet, dir string, d analysis.Diagnostic) string {
	pos := fset.Position(d.Pos)
	name := pos.Filename
	if rel, err := filepath.Rel(dir, name); err == nil && !strings.HasPrefix(rel, "..") {
		name = rel
	}
	return fmt.Sprintf("%s:%d:%d: %s (%s)", name, pos.Line, pos.Column, d.Message, d.Analyzer)
}
