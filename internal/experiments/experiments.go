// Package experiments reproduces every table and figure of the paper's §6
// over the synthetic Wikipedia worlds: the running-time ablations of Figure
// 4(a–c), the parallel scaling of Figure 4(d), the small-data candidate
// comparison of §6.2, the pattern/error quality protocol of §6.3, and the
// refinement-heuristic grid of Table 1 — plus ablation studies for the
// design choices DESIGN.md calls out.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"wiclean/internal/action"
	"wiclean/internal/dump"
	"wiclean/internal/mining"
	"wiclean/internal/relational"
	"wiclean/internal/synth"
)

// Config holds shared experiment knobs.
type Config struct {
	// Seed makes world generation reproducible.
	Seed uint64
	// Workers sizes the join-worker pool inside each window miner (see
	// mining.Config.JoinWorkers) and the detection pool (<=0 = GOMAXPROCS).
	Workers int
	// Abstraction is the hierarchy-climb bound handed to the miner.
	Abstraction int
	// ViaDump routes world construction through wikitext rendering and
	// re-parsing so preprocessing cost is measured on the honest
	// parse-and-diff path (the dominant cost in the paper's Figure 4).
	ViaDump bool
}

// DefaultConfig returns the standard experiment configuration.
func DefaultConfig() Config {
	return Config{Seed: 1, Workers: 0, Abstraction: 1, ViaDump: true}
}

// World bundles a generated world with its measured preprocessing cost.
type World struct {
	*synth.World
	Store   *dump.History
	Preproc time.Duration // revision parsing + link diffing
}

// BuildWorld generates a domain world of the given seed count and, when
// cfg.ViaDump is set, rebuilds its action history by rendering wikitext
// revisions and re-ingesting them — timing that parse as the preprocessing
// measurement.
func BuildWorld(cfg Config, domain synth.Domain, seeds int) (*World, error) {
	p := synth.DefaultParams(domain, seeds)
	p.Seed = cfg.Seed
	w, err := synth.Generate(p)
	if err != nil {
		return nil, err
	}
	out := &World{World: w, Store: w.History}
	if cfg.ViaDump {
		revs := w.RevisionDump()
		h := dump.NewHistory(w.Reg)
		start := time.Now()
		if err := h.IngestRevisions(revs); err != nil {
			return nil, fmt.Errorf("experiments: reingest: %w", err)
		}
		out.Preproc = time.Since(start)
		out.Store = h
	}
	return out, nil
}

// transferMonth is the analysis window of Figure 4(a,b): the month
// containing the domain's flagship burst (the paper's August). The soccer
// transfer scenario opens at week 4, so [4W, 8W) covers it.
func transferMonth() action.Window {
	return action.Window{Start: 4 * action.Week, End: 8 * action.Week}
}

// variantConfigs returns the PM and PM−join configurations at a threshold.
func variantConfigs(cfg Config, tau float64) (pm, pmNoJoin mining.Config) {
	pm = mining.PM(tau)
	pm.MaxAbstraction = cfg.Abstraction
	pm.JoinWorkers = cfg.Workers
	pmNoJoin = pm
	pmNoJoin.Strategy = relational.NestedLoop
	return pm, pmNoJoin
}

// formatDuration renders durations at millisecond precision for tables.
func formatDuration(d time.Duration) string {
	return d.Round(time.Millisecond).String()
}

// renderTable renders rows of equal length as an aligned text table.
func renderTable(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	for i := range header {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", width[i]))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		line(r)
	}
	return b.String()
}
