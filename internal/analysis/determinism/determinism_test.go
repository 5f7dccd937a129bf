package determinism_test

import (
	"testing"

	"wiclean/internal/analysis/analysistest"
	"wiclean/internal/analysis/determinism"
)

// TestDeterminism drives the analyzer over a fixture copy of a
// deterministic package (findings, sorted/local negative cases, and both
// escape-hatch shapes) and over a non-deterministic package where it must
// stay silent.
func TestDeterminism(t *testing.T) {
	analysistest.Run(t, "testdata", determinism.Analyzer,
		"wiclean/internal/mining",
		"wiclean/internal/assist",
	)
}

// TestPackageList pins the deterministic package set: the guarantee map
// in ARCHITECTURE.md §5 is written against exactly these paths.
func TestPackageList(t *testing.T) {
	want := map[string]bool{
		"wiclean/internal/mining":     true,
		"wiclean/internal/relational": true,
		"wiclean/internal/windows":    true,
		"wiclean/internal/pattern":    true,
		"wiclean/internal/model":      true,
		"wiclean/internal/taxonomy":   true,
	}
	if len(determinism.Packages) != len(want) {
		t.Fatalf("Packages has %d entries, want %d", len(determinism.Packages), len(want))
	}
	for _, p := range determinism.Packages {
		if !want[p] {
			t.Errorf("unexpected deterministic package %q", p)
		}
	}
}
