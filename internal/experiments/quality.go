package experiments

import (
	"fmt"
	"strings"
	"time"

	"wiclean/internal/core"
	"wiclean/internal/eval"
	"wiclean/internal/mining"
	"wiclean/internal/synth"
	"wiclean/internal/windows"
)

// QualityRow is one domain's line of the §6.3 evaluation: pattern recall
// against the expert catalog and the two-step error validation.
type QualityRow struct {
	Domain       string
	CatalogSize  int
	Found        int
	Precision    float64
	Recall       float64
	F1           float64
	Signaled     int
	CorrectedPct float64
	VerifiedPct  float64
	DetectRecall float64
	Elapsed      time.Duration
	Missed       []string
}

// Quality runs the full §6.3 protocol over every domain at the given seed
// count (the paper used 1000 seeds per domain).
func Quality(cfg Config, seeds int) ([]QualityRow, error) {
	if seeds <= 0 {
		seeds = 1000
	}
	var rows []QualityRow
	for _, name := range []string{"soccer", "cinematography", "us-politicians"} {
		d, err := synth.DomainByName(name)
		if err != nil {
			return nil, err
		}
		row, err := qualityOne(cfg, d, seeds)
		if err != nil {
			return nil, fmt.Errorf("experiments: quality %s: %w", name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func qualityOne(cfg Config, d synth.Domain, seeds int) (QualityRow, error) {
	row := QualityRow{Domain: d.Name, CatalogSize: len(d.Catalog)}
	w, err := BuildWorld(cfg, d, seeds)
	if err != nil {
		return row, err
	}
	start := time.Now()
	wcfg := windows.Defaults()
	wcfg.Mining = mining.PM(wcfg.InitialTau)
	wcfg.Mining.MaxAbstraction = cfg.Abstraction
	wcfg.Mining.JoinWorkers = cfg.Workers
	o, err := windows.Run(w.Store, w.Seeds, d.SeedType, w.Span, wcfg)
	if err != nil {
		return row, err
	}
	q := eval.ScorePatterns(o, w.World)
	// Detection reports into no registry: the experiment's metrics are
	// the walk's.
	sys := core.New(w.Store, windows.Defaults())
	if err := sys.UseOutcome(o); err != nil {
		return row, err
	}
	reports, err := sys.DetectErrors(cfg.Workers)
	if err != nil {
		return row, err
	}
	ee := eval.ScoreSignals(w.World, reports)
	row.Found = len(q.Found)
	row.Precision = q.Precision
	row.Recall = q.Recall
	row.F1 = q.F1
	row.Missed = q.Missed
	row.Signaled = ee.Signaled
	row.CorrectedPct = 100 * ee.CorrectedRate()
	row.VerifiedPct = 100 * ee.VerifiedRate()
	row.DetectRecall = 100 * ee.DetectionRecall()
	row.Elapsed = time.Since(start)
	return row, nil
}

// FormatQuality renders the quality rows next to the paper's numbers.
func FormatQuality(rows []QualityRow) string {
	header := []string{"domain", "patterns", "precision", "recall", "signaled", "corrected%", "verified%", "detect-recall%", "time"}
	paper := map[string][3]string{
		"soccer":         {"9/11", "71.6", "82.1"},
		"cinematography": {"7/8", "67.8", "81.2"},
		"us-politicians": {"4/5", "64.7", "78.1"},
	}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Domain,
			fmt.Sprintf("%d/%d", r.Found, r.CatalogSize),
			fmt.Sprintf("%.3f", r.Precision),
			fmt.Sprintf("%.3f", r.Recall),
			fmt.Sprint(r.Signaled),
			fmt.Sprintf("%.1f", r.CorrectedPct),
			fmt.Sprintf("%.1f", r.VerifiedPct),
			fmt.Sprintf("%.1f", r.DetectRecall),
			formatDuration(r.Elapsed),
		})
	}
	var b strings.Builder
	b.WriteString("Quality evaluation (§6.3)\n")
	b.WriteString(renderTable(header, cells))
	b.WriteString("paper: ")
	for _, r := range rows {
		p := paper[r.Domain]
		fmt.Fprintf(&b, "%s found %s corrected %s%% verified %s%%;  ", r.Domain, p[0], p[1], p[2])
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "missed in %s: %s\n", r.Domain, strings.Join(r.Missed, ", "))
	}
	return b.String()
}
