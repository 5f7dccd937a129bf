// Package analysistest runs one project analyzer over a fixture package
// tree and checks its findings against `// want "regexp"` expectation
// comments — the golang.org/x/tools/go/analysis/analysistest workflow,
// reimplemented on the standard library so analyzer tests need no
// third-party modules.
//
// Fixtures live in a GOPATH-style tree under the test's testdata
// directory: testdata/src/<import/path>/*.go. Imports of other fixture
// packages (stub wiclean/internal/obs, wiclean/internal/source, ...)
// resolve inside the tree; anything else resolves to the real standard
// library through `go list -export` compiled export data, so fixtures
// freely import time, fmt, errors and context.
//
// An expectation is a comment containing `// want` followed by one or
// more quoted regular expressions; each must match a distinct diagnostic
// reported on that comment's line. Every diagnostic must be expected and
// every expectation must fire, or the test fails.
package analysistest

import (
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
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"wiclean/internal/analysis"
)

// stdExports memoizes import path -> compiled export data file across
// every harness run in the process (`go list -export` is the slow part).
var (
	stdMu      sync.Mutex
	stdExports = map[string]string{}
)

// resolveExports fills stdExports for path and its dependency closure.
func resolveExports(path string) error {
	stdMu.Lock()
	defer stdMu.Unlock()
	if _, ok := stdExports[path]; ok {
		return nil
	}
	out, err := exec.Command("go", "list", "-export", "-deps",
		"-f", "{{.ImportPath}}={{.Export}}", path).Output()
	if err != nil {
		return fmt.Errorf("analysistest: go list -export %s: %w", path, err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		p, f, ok := strings.Cut(line, "=")
		if ok && f != "" {
			stdExports[p] = f
		}
	}
	if _, ok := stdExports[path]; !ok {
		return fmt.Errorf("analysistest: no export data for %q", path)
	}
	return nil
}

// loader type-checks fixture packages, resolving fixture imports from
// srcRoot and everything else from compiled stdlib export data.
type loader struct {
	fset    *token.FileSet
	srcRoot string
	pkgs    map[string]*loadedPkg
	std     types.Importer
}

// loadedPkg is one type-checked fixture package.
type loadedPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

func newLoader(srcRoot string) *loader {
	l := &loader{
		fset:    token.NewFileSet(),
		srcRoot: srcRoot,
		pkgs:    map[string]*loadedPkg{},
	}
	l.std = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		if err := resolveExports(path); err != nil {
			return nil, err
		}
		stdMu.Lock()
		f := stdExports[path]
		stdMu.Unlock()
		return os.Open(f)
	})
	return l
}

// Import implements types.Importer over the hybrid fixture/stdlib space.
func (l *loader) Import(path string) (*types.Package, error) {
	if lp, ok := l.pkgs[path]; ok {
		return lp.pkg, nil
	}
	if _, err := os.Stat(filepath.Join(l.srcRoot, filepath.FromSlash(path))); err == nil {
		lp, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return lp.pkg, nil
	}
	return l.std.Import(path)
}

// load parses and type-checks the fixture package at path.
func (l *loader) load(path string) (*loadedPkg, error) {
	dir := filepath.Join(l.srcRoot, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysistest: fixture package %s: %w", path, err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("analysistest: fixture package %s has no .go files", path)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := analysis.NewInfo()
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysistest: type-checking fixture %s: %w", path, err)
	}
	lp := &loadedPkg{pkg: pkg, files: files, info: info}
	l.pkgs[path] = lp
	return lp, nil
}

// Run loads each fixture package under testdata/src, applies the
// analyzer through analysis.Run (escape hatch included), and verifies its
// diagnostics against the // want comments in that package's files.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgpaths ...string) {
	t.Helper()
	l := newLoader(filepath.Join(testdata, "src"))
	for _, path := range pkgpaths {
		lp, err := l.load(path)
		if err != nil {
			t.Fatal(err)
		}
		diags, err := analysis.Run(&analysis.Pass{
			Analyzer:  a,
			Fset:      l.fset,
			Files:     lp.files,
			Pkg:       lp.pkg,
			TypesInfo: lp.info,
		})
		if err != nil {
			t.Fatalf("%s: running %s: %v", path, a.Name, err)
		}
		checkExpectations(t, l.fset, lp.files, path, diags)
	}
}

// wantKey addresses one source line of one file.
type wantKey struct {
	file string
	line int
}

// checkExpectations matches diagnostics against // want comments.
func checkExpectations(t *testing.T, fset *token.FileSet, files []*ast.File, path string, diags []analysis.Diagnostic) {
	t.Helper()
	wants := map[wantKey][]*regexp.Regexp{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				res, err := parseWant(c.Text)
				if err != nil {
					t.Fatalf("%s: %s: %v", path, fset.Position(c.Pos()), err)
				}
				if len(res) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				key := wantKey{file: pos.Filename, line: pos.Line}
				wants[key] = append(wants[key], res...)
			}
		}
	}

	for _, d := range diags {
		pos := fset.Position(d.Pos)
		key := wantKey{file: pos.Filename, line: pos.Line}
		matched := false
		for i, re := range wants[key] {
			if re != nil && re.MatchString(d.Message) {
				wants[key][i] = nil // consume
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic at %s: %s", path, pos, d.Message)
		}
	}
	var keys []wantKey
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		for _, re := range wants[k] {
			if re != nil {
				t.Errorf("%s: expected diagnostic at %s:%d matching %q, got none", path, k.file, k.line, re)
			}
		}
	}
}

// parseWant extracts the quoted regexps following a `// want` marker in a
// comment's raw text. Comments without the marker yield nothing.
func parseWant(text string) ([]*regexp.Regexp, error) {
	_, rest, ok := strings.Cut(text, "// want")
	if !ok {
		return nil, nil
	}
	var res []*regexp.Regexp
	rest = strings.TrimSpace(rest)
	for rest != "" {
		q, err := strconv.QuotedPrefix(rest)
		if err != nil {
			return nil, fmt.Errorf("malformed // want expectation %q: %w", rest, err)
		}
		s, err := strconv.Unquote(q)
		if err != nil {
			return nil, fmt.Errorf("malformed // want string %q: %w", q, err)
		}
		re, err := regexp.Compile(s)
		if err != nil {
			return nil, fmt.Errorf("bad // want regexp %q: %w", s, err)
		}
		res = append(res, re)
		rest = strings.TrimSpace(rest[len(q):])
	}
	if len(res) == 0 {
		return nil, fmt.Errorf("// want with no quoted regexp")
	}
	return res, nil
}
