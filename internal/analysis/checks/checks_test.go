package checks

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
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
