package mining

import (
	"context"
	"fmt"

	"wiclean/internal/obs/trace"
	"wiclean/internal/pattern"
)

// RelativePattern is a most specific relative frequent pattern p' ≺ p
// (Definition 3.5), scored by its relative frequency w.r.t. its base.
type RelativePattern struct {
	Base        pattern.Pattern
	Pattern     pattern.Pattern
	RelFreq     float64 // frequency(p') / frequency(p)
	Frequency   float64 // absolute frequency of p'
	SourceCount int
}

// String renders the relative pattern.
func (r RelativePattern) String() string {
	return fmt.Sprintf("rel %.2f (abs %.2f) %s ≺ %s", r.RelFreq, r.Frequency, r.Pattern, r.Base)
}

// MineRelativeContext runs the relative-frequent-patterns stage of
// Algorithm 2 (line 14) over a base mining result: for each most specific
// frequent pattern p, it expands p further, admitting extensions whose
// relative frequency freq(p')/freq(p) clears cfg.TauRel, and returns the
// most specific ones per base pattern.
//
// The expansion reuses the same grow-and-store machinery; the only change
// is the threshold, exactly as §4.2 describes ("the computation of relative
// frequent patterns proceeds in a similar manner ... relative frequency is
// computed ... using the formula in Definition 3.4"). The context adds a
// "mining.relative" trace span (with per-batch children) when it carries
// one, and a context-rebound store when store is a ContextStore — the same
// observe-only contract as MineContext.
func MineRelativeContext(ctx context.Context, store Store, base *Result, cfg Config) (map[string][]RelativePattern, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ctx, tsp := trace.StartSpan(ctx, "mining.relative")
	tsp.SetAttrInt("base_patterns", int64(len(base.Patterns)))
	if cs, ok := store.(ContextStore); ok {
		store = cs.WithContext(ctx)
	}
	out := map[string][]RelativePattern{}
	for _, sp := range base.Patterns {
		rels, err := mineRelativeOne(ctx, store, base, sp, cfg)
		if err != nil {
			tsp.Fail(err)
			tsp.End()
			return nil, err
		}
		if len(rels) > 0 {
			out[sp.Pattern.Canonical()] = rels
		}
	}
	tsp.End()
	return out, nil
}

func mineRelativeOne(ctx context.Context, store Store, base *Result, sp ScoredPattern, cfg Config) ([]RelativePattern, error) {
	if sp.Frequency <= 0 {
		return nil, nil
	}
	// Absolute threshold equivalent to rel_frequency ≥ TauRel.
	absTau := cfg.TauRel * sp.Frequency
	if absTau <= 0 {
		absTau = 1e-9
	}
	sub := cfg
	sub.Tau = absTau

	m := newMiner(store, base.Seeds, base.SeedType, base.Window, sub)
	defer m.publishJoins()
	m.ctx = ctx
	m.preprocess()
	// Seed the expansion with p itself rather than singletons; grow() will
	// pull the histories of the types p mentions before extending it.
	key, _ := m.coder.Key(sp.Pattern)
	m.frequent[key] = &ScoredPattern{
		Pattern:      sp.Pattern,
		Frequency:    sp.Frequency,
		SourceCount:  sp.SourceCount,
		Realizations: sp.Realizations,
	}
	m.order = append(m.order, key)
	if err := m.grow(); err != nil {
		return nil, err
	}

	// Line 16 over the patterns grown from p. m.order holds one pattern per
	// isomorphism class, p's first.
	grown := m.order[1:]
	all := make([]pattern.Pattern, len(grown))
	for i, k := range grown {
		all[i] = m.frequent[k].Pattern
	}
	var out []RelativePattern
	for _, i := range pattern.MostSpecific(all, m.tax) {
		got := m.frequent[grown[i]]
		// Only strictly more specific extensions of the base qualify. got's
		// class is not p's, so p subsuming got already means got ≺ p.
		if !pattern.Subsumes(sp.Pattern, got.Pattern, m.tax) {
			continue
		}
		out = append(out, RelativePattern{
			Base:        sp.Pattern,
			Pattern:     got.Pattern,
			RelFreq:     got.Frequency / sp.Frequency,
			Frequency:   got.Frequency,
			SourceCount: got.SourceCount,
		})
	}
	return out, nil
}
