package mining

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"wiclean/internal/action"
	"wiclean/internal/pattern"
	"wiclean/internal/relational"
	"wiclean/internal/taxonomy"
)

// Store is the revision-history access interface the miner consumes;
// dump.History and source.Store implement it. ActionsOf is the
// incremental path of §4's Optimization (b) (histories of chosen entities
// only); AllActions is the full-materialization path of the
// non-incremental variants (PM−inc, §6.1).
type Store interface {
	Registry() *taxonomy.Registry
	ActionsOf(ids []taxonomy.EntityID, w action.Window) []action.Action
	AllActions(w action.Window) []action.Action
}

// TypeStore is an optional Store extension for backends that fetch whole
// type histories at once — the exact granularity of the incremental
// loop's pulls ("extract the revision histories of every entity of each
// type newly mentioned by a frequent pattern", Algorithm 1 lines 5–8).
// When the store implements it, the miner pulls each new type with one
// ActionsOfType call instead of one ActionsOf call per most specific
// subtype, which is what makes a type-level fetch cache effective.
type TypeStore interface {
	Store

	// ActionsOfType returns the actions of entities(t) inside w, sorted
	// by time.
	ActionsOfType(t taxonomy.Type, w action.Window) []action.Action
}

// FallibleStore is an optional Store extension for remote- or dump-backed
// stores whose fetches can fail (source.Store). Store methods return no
// errors, so such stores record the first failure and return no actions
// from then on. Every reader checks it through FetchFailure: the miner at
// every pull boundary, detection and the assistant after their reads.
// Each returns the wrapped error rather than an answer computed from a
// partially fetched edits graph.
type FallibleStore interface {
	Store

	// FetchErr returns the first revision-history fetch failure, or nil.
	FetchErr() error
}

// ContextStore is an optional Store extension for backends whose fetches
// are scoped to a context (source.Store): WithContext returns a view of
// the same store — shared cache, shared sticky error — whose fetches run
// under ctx. MineContext rebinds a ContextStore to its own context, so
// cancellation reaches in-flight fetches and the source layer's fetch
// spans join the caller's trace (see internal/obs/trace).
type ContextStore interface {
	Store

	// WithContext returns this store rebound to ctx.
	WithContext(ctx context.Context) Store
}

// FetchFailure returns a FallibleStore's sticky error, wrapped with
// mining context, or nil; plain in-memory stores never fail. A reader
// that checks it after its last read knows every action it read came
// from a store that had not failed.
func FetchFailure(s Store) error {
	fs, ok := s.(FallibleStore)
	if !ok {
		return nil
	}
	if err := fs.FetchErr(); err != nil {
		return fmt.Errorf("mining: revision-history fetch failed: %w", err)
	}
	return nil
}

// ScoredPattern is a mined pattern with its support evidence.
type ScoredPattern struct {
	Pattern      pattern.Pattern
	Frequency    float64 // fraction of the seed set covered (Definition 3.2)
	SourceCount  int     // distinct seed entities appearing as source
	Realizations *relational.Table
}

// String renders the pattern with its score.
func (s ScoredPattern) String() string {
	return fmt.Sprintf("%.2f %s", s.Frequency, s.Pattern)
}

// Stats records the work one mining run performed. Candidates is the
// §6.2 small-data metric ("the number of considered pattern candidates");
// NodesProcessed is the parenthesized node count of Figure 4.
type Stats struct {
	Candidates       int // singleton + extension patterns evaluated
	FrequentFound    int // patterns that passed the threshold
	NodesProcessed   int // entities whose revision histories were pulled
	ActionsProcessed int // raw actions extracted
	ReducedActions   int // actions surviving reduction
	TypeExpansions   int // outer-loop iterations that pulled new types
	Join             relational.Stats
	Preprocessing    time.Duration // history extraction + reduction
	Mining           time.Duration // pattern growth + frequency tests + line 16
}

// Add accumulates o into s (durations included), for aggregating windows.
func (s *Stats) Add(o Stats) {
	s.Candidates += o.Candidates
	s.FrequentFound += o.FrequentFound
	s.NodesProcessed += o.NodesProcessed
	s.ActionsProcessed += o.ActionsProcessed
	s.ReducedActions += o.ReducedActions
	s.TypeExpansions += o.TypeExpansions
	s.Join.Add(o.Join)
	s.Preprocessing += o.Preprocessing
	s.Mining += o.Mining
}

// Result is the outcome of mining one window.
type Result struct {
	SeedType taxonomy.Type
	Seeds    []taxonomy.EntityID
	SeedSize int
	Window   action.Window

	// Patterns are the most specific frequent patterns (Definition 3.3),
	// sorted by descending frequency then by notation.
	Patterns []ScoredPattern

	// AllFrequent keeps every frequent pattern discovered, including
	// non-most-specific ones — the paper keeps them because "such general
	// patterns may still be useful in later iterations" and the relative
	// stage expands them further.
	AllFrequent []ScoredPattern

	Stats Stats
}

// Find returns the scored entry for a pattern isomorphic to p, if any.
func (r *Result) Find(p pattern.Pattern) (ScoredPattern, bool) {
	key := p.Canonical()
	for _, sp := range r.AllFrequent {
		if sp.Pattern.Canonical() == key {
			return sp, true
		}
	}
	return ScoredPattern{}, false
}

// sortScored orders patterns by descending frequency, then larger patterns
// first, then notation, for stable human-readable output. Each notation is
// formatted once, not once per comparison.
func sortScored(ps []ScoredPattern) {
	type keyed struct {
		sp       ScoredPattern
		notation string
	}
	ks := make([]keyed, len(ps))
	for i, sp := range ps {
		ks[i] = keyed{sp, sp.Pattern.String()}
	}
	slices.SortStableFunc(ks, func(a, b keyed) int {
		if c := cmp.Compare(b.sp.Frequency, a.sp.Frequency); c != 0 {
			return c
		}
		if c := cmp.Compare(b.sp.Pattern.Size(), a.sp.Pattern.Size()); c != 0 {
			return c
		}
		return strings.Compare(a.notation, b.notation)
	})
	for i, k := range ks {
		ps[i] = k.sp
	}
}

// Format renders the result as a report block.
func (r *Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "window %v, seed type %s (%d entities): %d most-specific frequent patterns\n",
		r.Window, r.SeedType, r.SeedSize, len(r.Patterns))
	for _, sp := range r.Patterns {
		fmt.Fprintf(&b, "  freq %.2f (%d sources) %s\n", sp.Frequency, sp.SourceCount, sp.Pattern)
	}
	return b.String()
}
