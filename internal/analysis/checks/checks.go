// Package checks is the registry of WiClean's project analyzers — the
// single list cmd/wiclean-lint, the CI lint job, the in-tree self-run
// test and the registry/doc-drift tests all consume, so the documented
// analyzer set and the enforced one cannot drift apart. Adding an
// analyzer here is the whole registration: everything downstream derives
// from this slice.
package checks

import (
	"wiclean/internal/analysis"
	"wiclean/internal/analysis/atomicfield"
	"wiclean/internal/analysis/ctxfirst"
	"wiclean/internal/analysis/determinism"
	"wiclean/internal/analysis/goleak"
	"wiclean/internal/analysis/lockbalance"
	"wiclean/internal/analysis/obsnil"
	"wiclean/internal/analysis/resclose"
	"wiclean/internal/analysis/tracectx"
	"wiclean/internal/analysis/wraperr"
)

// All returns every project analyzer, in the documented order. See
// ARCHITECTURE.md §5 for the invariant each one protects.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		determinism.Analyzer,
		wraperr.Analyzer,
		obsnil.Analyzer,
		ctxfirst.Analyzer,
		tracectx.Analyzer,
		goleak.Analyzer,
		lockbalance.Analyzer,
		atomicfield.Analyzer,
		resclose.Analyzer,
	}
}
