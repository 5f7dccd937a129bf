package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// runOnLines parses one synthetic file and runs, through Run, an
// analyzer with directive "fake" that reports one finding at the start of
// each given line. It returns the lines of the findings Run keeps.
func runOnLines(t *testing.T, src string, lines ...int) []Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	fake := &Analyzer{Name: "fake", Directive: "fake", Run: func(p *Pass) error {
		for _, l := range lines {
			p.Reportf(fset.File(f.Pos()).LineStart(l), "finding on line %d", l)
		}
		return nil
	}}
	diags, err := Run(&Pass{Analyzer: fake, Fset: fset, Files: []*ast.File{f}})
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

const directiveSrc = `package p

func a() {
	_ = 1 //wiclean:allow-fake reasoned same-line exemption
	//wiclean:allow-fake reasoned line-above exemption
	_ = 2
	_ = 3 //wiclean:allow-fake
	_ = 4 //wiclean:allow-other a different analyzer's directive
	_ = 5
}
`

func TestAllowed(t *testing.T) {
	cases := []struct {
		line int
		want bool // finding survives Run
		why  string
	}{
		{4, false, "same-line reasoned directive"},
		{5, false, "line-above rule sees the line-4 directive, harmlessly"},
		{6, false, "reasoned directive on the line above"},
		{7, true, "bare directive must not exempt"},
		{8, true, "another analyzer's directive must not exempt"},
		{9, true, "no directive at all"},
	}
	for _, c := range cases {
		kept := false
		for _, d := range runOnLines(t, directiveSrc, c.line) {
			kept = kept || strings.HasPrefix(d.Message, "finding on line")
		}
		if kept != c.want {
			t.Errorf("finding on line %d kept = %v, want %v (%s)", c.line, kept, c.want, c.why)
		}
	}
}

func TestCheckDirectivesReportsBareOnes(t *testing.T) {
	diags := runOnLines(t, directiveSrc)
	if len(diags) != 1 {
		t.Fatalf("Run reported %d diagnostics, want 1 (the bare line-7 directive): %v", len(diags), diags)
	}
	d := diags[0]
	if !strings.Contains(d.Message, "needs a reason") {
		t.Errorf("diagnostic message %q does not explain the missing reason", d.Message)
	}
	if d.Analyzer != "fake" {
		t.Errorf("diagnostic attributed to %q, want fake", d.Analyzer)
	}
	// The bare directive is reported even though its own line and the line
	// above it carry nothing else.
	diags = runOnLines(t, "package p\n\n//wiclean:allow-fake reasoned\nvar _ = 0 //wiclean:allow-fake\n")
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "needs a reason") {
		t.Errorf("a bare directive under a reasoned one: got %v, want one needs-a-reason finding", diags)
	}
}

func TestDirectiveReasonStopsAtNestedComment(t *testing.T) {
	diags := runOnLines(t, "package p\n\nfunc a() {\n\t_ = 1 //wiclean:allow-fake // want trailing-marker text\n}\n", 4)
	if len(diags) != 2 {
		t.Errorf("a directive whose reason is only a nested // marker must not exempt and must be reported: got %v", diags)
	}
}

// TestAllowedIsPerFile: a directive exempts lines of its own file only,
// never the same line numbers of another file in the package.
func TestAllowedIsPerFile(t *testing.T) {
	fset := token.NewFileSet()
	a, err := parser.ParseFile(fset, "a.go", "package p\n\nvar _ = 0 //wiclean:allow-fake reasoned\n", parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	b, err := parser.ParseFile(fset, "b.go", "package p\n\nvar _ = 1\n", parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	fake := &Analyzer{Name: "fake", Directive: "fake", Run: func(p *Pass) error {
		p.Reportf(fset.File(b.Pos()).LineStart(3), "finding in b.go")
		return nil
	}}
	diags, err := Run(&Pass{Analyzer: fake, Fset: fset, Files: []*ast.File{a, b}})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Errorf("a.go's directive exempted a finding in b.go: got %v", diags)
	}
}
