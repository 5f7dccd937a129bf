package experiments

import (
	"fmt"

	"wiclean/internal/mining"
	"wiclean/internal/synth"
)

// SmallDataResult reproduces the §6.2 small-data experiment: the number of
// candidate patterns considered by the incremental variants (PM, PM−join)
// versus the full-graph variants (PM−inc, PM−inc,−join) over comparable
// input sizes. The paper measured 125 vs 524 — incremental construction
// prunes the candidates contributed by entity types that are never reached
// from the seed type.
type SmallDataResult struct {
	IncrementalCandidates int
	FullGraphCandidates   int
	IncrementalNodes      int
	FullGraphNodes        int
	Patterns              int // most specific patterns (identical across variants)
}

// SmallData runs the candidate-count comparison on a compact soccer world
// whose noise includes edits by unrelated entity types (the materialized
// full graph holds them; incremental construction never visits them).
func SmallData(cfg Config, seeds int) (*SmallDataResult, error) {
	if seeds <= 0 {
		seeds = 200
	}
	w, err := BuildWorld(cfg, synth.Soccer(), seeds)
	if err != nil {
		return nil, err
	}
	win := transferMonth()
	inc := mining.PM(0.4)
	inc.MaxAbstraction = cfg.Abstraction
	full := inc
	full.Incremental = false

	resInc, err := mining.Mine(w.Store, w.Seeds, w.Domain.SeedType, win, inc)
	if err != nil {
		return nil, err
	}
	resFull, err := mining.Mine(w.Store, w.Seeds, w.Domain.SeedType, win, full)
	if err != nil {
		return nil, err
	}
	return &SmallDataResult{
		IncrementalCandidates: resInc.Stats.Candidates,
		FullGraphCandidates:   resFull.Stats.Candidates,
		IncrementalNodes:      resInc.Stats.NodesProcessed,
		FullGraphNodes:        resFull.Stats.NodesProcessed,
		Patterns:              len(resFull.Patterns),
	}, nil
}

// Format renders the comparison.
func (r *SmallDataResult) Format() string {
	return fmt.Sprintf(
		"Small-data experiment (§6.2): candidates considered\n"+
			"  incremental (PM / PM-join):     %d candidates over %d nodes\n"+
			"  full graph (PM-inc / -join):    %d candidates over %d nodes\n"+
			"  most specific patterns (same for all variants): %d\n"+
			"  paper reported 125 vs 524 — incremental prunes ~%.1fx\n",
		r.IncrementalCandidates, r.IncrementalNodes,
		r.FullGraphCandidates, r.FullGraphNodes,
		r.Patterns,
		safeRatio(r.FullGraphCandidates, r.IncrementalCandidates))
}

func safeRatio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
