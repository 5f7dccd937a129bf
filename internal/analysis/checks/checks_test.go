package checks

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wiclean/internal/analysis"
)

// TestRegistryWellFormed derives its expectations from All() itself
// instead of a hand-copied list, so adding an analyzer cannot silently
// skip cmd/wiclean-lint: every entry must be fully formed and names and
// directives must be unique across the set.
func TestRegistryWellFormed(t *testing.T) {
	all := All()
	if len(all) == 0 {
		t.Fatal("All() is empty")
	}
	names := map[string]bool{}
	directives := map[string]string{}
	for _, a := range all {
		if a == nil {
			t.Fatal("All() contains a nil analyzer")
		}
		if a.Name == "" {
			t.Error("analyzer with empty name")
			continue
		}
		if names[a.Name] {
			t.Errorf("analyzer %q registered twice", a.Name)
		}
		names[a.Name] = true
		if a.Directive == "" {
			t.Errorf("analyzer %q has no escape-hatch directive", a.Name)
		} else if prev, dup := directives[a.Directive]; dup {
			t.Errorf("analyzers %q and %q share directive %q", prev, a.Name, a.Directive)
		} else {
			directives[a.Directive] = a.Name
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no documentation", a.Name)
		}
		if a.Run == nil {
			t.Errorf("analyzer %q has no Run function", a.Name)
		}
	}
}

// TestEscapeHatchPerAnalyzer applies the framework's escape hatch with
// each registered analyzer's directive: analysis.Run drops a finding on a
// line carrying the analyzer's reasoned directive and one on the line
// below it, keeps one under another analyzer's directive or a bare one,
// and reports the bare directive exactly once. The analyzer's Run is
// replaced by a probe reporting on every line of the file.
func TestEscapeHatchPerAnalyzer(t *testing.T) {
	all := All()
	for i, a := range all {
		other := all[(i+1)%len(all)].Directive
		src := fmt.Sprintf(`package p

var (
	_ = 4 //wiclean:allow-%[1]s reasoned on its own line
	//wiclean:allow-%[1]s reasoned on the line above
	_ = 6
	_ = 7 //wiclean:allow-%[2]s another analyzer's reason
	_ = 8 //wiclean:allow-%[1]s
)
`, a.Directive, other)
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		probe := *a
		probe.Run = func(p *analysis.Pass) error {
			for line := 4; line <= 8; line++ {
				p.Reportf(fset.File(f.Pos()).LineStart(line), "finding on line %d", line)
			}
			return nil
		}
		diags, err := analysis.Run(&analysis.Pass{Analyzer: &probe, Fset: fset, Files: []*ast.File{f}})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, d := range diags {
			if d.Analyzer != a.Name {
				t.Errorf("%s: diagnostic attributed to %q", a.Name, d.Analyzer)
			}
			got = append(got, fmt.Sprintf("%d: %s", fset.Position(d.Pos).Line, d.Message))
		}
		want := []string{
			"8: " + analysis.DirectivePrefix + a.Directive + " needs a reason explaining why the exemption is sound",
			"7: finding on line 7",
			"8: finding on line 8",
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s (directive %q): got\n%s\nwant\n%s", a.Name, a.Directive,
				strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}

// TestRegistryMatchesDocs walks up to the module root and asserts every
// registered analyzer name appears in README.md's Linting section and in
// ARCHITECTURE.md §5 — the drift the old hand-pinned test guarded
// against, now enforced for whatever the registry actually holds.
func TestRegistryMatchesDocs(t *testing.T) {
	root := moduleRoot(t)
	for _, doc := range []string{"README.md", "ARCHITECTURE.md"} {
		raw, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatalf("reading %s: %v", doc, err)
		}
		text := string(raw)
		for _, a := range All() {
			if !strings.Contains(text, a.Name) {
				t.Errorf("%s does not mention registered analyzer %q", doc, a.Name)
			}
		}
	}
}

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above the test directory")
		}
		dir = parent
	}
}
