package experiments

import (
	"fmt"
	"time"

	"wiclean/internal/eval"
	"wiclean/internal/mining"
	"wiclean/internal/synth"
	"wiclean/internal/windows"
)

// HeuristicSetting is one row of Table 1: the refinement policy's window
// multiplier and fractional threshold cut.
type HeuristicSetting struct {
	WindowFactor float64
	TauCut       float64
}

// Table1Settings returns the five sampled policies of Table 1 (the first is
// WC's chosen one).
func Table1Settings() []HeuristicSetting {
	return []HeuristicSetting{
		{2.0, 0.20},
		{1.0, 0.20},
		{2.0, 0.00},
		{1.5, 0.10},
		{3.0, 0.40},
	}
}

// Table1Row is one measured policy.
type Table1Row struct {
	Setting   HeuristicSetting
	Runtime   time.Duration
	Precision float64
	Recall    float64
	F1        float64
	Steps     int
}

// Table1 reproduces the parameter-tuning grid sample of Table 1 over the
// soccer domain: each refinement policy's runtime and pattern quality.
func Table1(cfg Config, seeds int) ([]Table1Row, error) {
	if seeds <= 0 {
		seeds = 300
	}
	w, err := BuildWorld(cfg, synth.Soccer(), seeds)
	if err != nil {
		return nil, err
	}
	var rows []Table1Row
	for _, set := range Table1Settings() {
		wcfg := windows.Defaults()
		wcfg.WindowFactor = set.WindowFactor
		wcfg.TauCut = set.TauCut
		wcfg.Mining = mining.PM(wcfg.InitialTau)
		wcfg.Mining.MaxAbstraction = cfg.Abstraction
		wcfg.Mining.JoinWorkers = cfg.Workers
		wcfg.Obs = cfg.Obs
		wcfg.SkipRelative = true

		start := time.Now()
		o, err := windows.Run(w.Store, w.Seeds, w.Domain.SeedType, w.Span, wcfg)
		if err != nil {
			return nil, err
		}
		q := eval.ScorePatterns(o, w.World)
		rows = append(rows, Table1Row{
			Setting:   set,
			Runtime:   time.Since(start),
			Precision: q.Precision,
			Recall:    q.Recall,
			F1:        q.F1,
			Steps:     o.RefinementSteps,
		})
	}
	return rows, nil
}

// FormatTable1 renders the heuristic grid.
func FormatTable1(rows []Table1Row) string {
	header := []string{"(w, tau)", "runtime", "precision", "recall", "F1", "steps"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			fmt.Sprintf("%.1fx, %.0f%%", r.Setting.WindowFactor, 100*r.Setting.TauCut),
			formatDuration(r.Runtime),
			fmt.Sprintf("%.2f", r.Precision),
			fmt.Sprintf("%.2f", r.Recall),
			fmt.Sprintf("%.2f", r.F1),
			fmt.Sprint(r.Steps),
		})
	}
	return "Table 1: refinement-heuristic grid (soccer)\n" + renderTable(header, cells)
}
