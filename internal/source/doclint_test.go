package source

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExportedDeclarationsAreDocumented is a lightweight stand-in for the
// revive exported-comment rule that CI runs: every exported declaration in
// the packages this PR documents must carry a doc comment. It keeps the
// godoc pass honest even where revive is unavailable.
func TestExportedDeclarationsAreDocumented(t *testing.T) {
	for _, dir := range []string{".", "../mining", "../windows", "../pattern", "../logx"} {
		missing := undocumentedExports(t, dir)
		if len(missing) > 0 {
			t.Errorf("%s: exported declarations missing doc comments:\n  %s",
				dir, strings.Join(missing, "\n  "))
		}
	}
}

// TestInternalPackagesHaveComments walks every package under internal/ and
// requires a package comment — the one-paragraph "why does this package
// exist" that godoc leads with. Test-only packages may carry it on a _test
// file; a package split across files needs it on exactly one of them to
// count.
func TestInternalPackagesHaveComments(t *testing.T) {
	root := ".."
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		hasGo := false
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				hasGo = true
				break
			}
		}
		if !hasGo {
			return nil
		}
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, path, nil, parser.PackageClauseOnly|parser.ParseComments)
		if err != nil {
			return err
		}
		documented := false
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				if f.Doc != nil {
					documented = true
				}
			}
		}
		if !documented {
			t.Errorf("%s: no file carries a package comment", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// undocumentedExports parses dir (tests excluded) and lists exported
// declarations without a leading doc comment.
func undocumentedExports(t *testing.T, dir string) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatalf("parsing %s: %v", dir, err)
	}
	var missing []string
	report := func(pos token.Pos, what string) {
		p := fset.Position(pos)
		missing = append(missing, p.Filename+": "+what)
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && d.Doc == nil {
						report(d.Pos(), "func "+d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
								report(s.Pos(), "type "+s.Name.Name)
							}
						case *ast.ValueSpec:
							for _, name := range s.Names {
								if name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
									report(s.Pos(), "value "+name.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	return missing
}
