package experiments

import (
	"fmt"
	"time"

	"wiclean/internal/mining"
	"wiclean/internal/synth"
)

// AblationRow measures one design-choice ablation over the transfer-month
// window (DESIGN.md §5): reduction of action sets and the type-hierarchy
// abstraction.
type AblationRow struct {
	Name       string
	Mining     time.Duration
	Actions    int // actions fed to abstraction
	Candidates int
	Frequent   int
	Patterns   int // most specific
}

// Ablations runs the reduction and hierarchy ablations on a soccer world.
func Ablations(cfg Config, seeds int) ([]AblationRow, error) {
	if seeds <= 0 {
		seeds = 300
	}
	w, err := BuildWorld(cfg, synth.Soccer(), seeds)
	if err != nil {
		return nil, err
	}
	win := transferMonth()
	base := mining.PM(0.4)
	base.MaxAbstraction = cfg.Abstraction
	// Bound pattern size: with the hierarchy unbounded, every abstraction
	// of a frequent pattern is itself frequent, so the candidate count
	// grows as (levels²)^size — the very blow-up the paper's join-based
	// frequency test exists to absorb. Three actions suffice to expose the
	// gap while keeping the sweep tractable.
	base.MaxActions = 3

	configs := []struct {
		name string
		cfg  mining.Config
	}{
		{"PM (reduction on, hierarchy on)", base},
		{"no action-set reduction", func() mining.Config { c := base; c.NoReduce = true; return c }()},
		{"base types only (no hierarchy)", func() mining.Config { c := base; c.MaxAbstraction = 0; return c }()},
		{"full hierarchy (unbounded)", func() mining.Config { c := base; c.MaxAbstraction = -1; return c }()},
	}
	var rows []AblationRow
	for _, c := range configs {
		res, err := mining.Mine(w.Store, w.Seeds, w.Domain.SeedType, win, c.cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Name:       c.name,
			Mining:     res.Stats.Mining,
			Actions:    res.Stats.ReducedActions,
			Candidates: res.Stats.Candidates,
			Frequent:   res.Stats.FrequentFound,
			Patterns:   len(res.Patterns),
		})
	}
	return rows, nil
}

// FormatAblations renders the ablation table.
func FormatAblations(rows []AblationRow) string {
	header := []string{"variant", "mine time", "actions", "candidates", "frequent", "most specific"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Name,
			formatDuration(r.Mining),
			fmt.Sprint(r.Actions),
			fmt.Sprint(r.Candidates),
			fmt.Sprint(r.Frequent),
			fmt.Sprint(r.Patterns),
		})
	}
	return "Ablations (transfer-month window, tau 0.4)\n" + renderTable(header, cells)
}
