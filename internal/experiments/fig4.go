package experiments

import (
	"fmt"
	"runtime"
	"time"

	"wiclean/internal/action"
	"wiclean/internal/mining"
	"wiclean/internal/synth"
	"wiclean/internal/windows"
)

// Fig4Row is one bar group of Figure 4(a–c): the preprocessing time (shared
// by both variants, as in the paper) and the pattern-mining time of PM and
// PM−join, with the node count the parenthesized annotation reports.
type Fig4Row struct {
	Label   string
	Seeds   int
	Nodes   int // related entities processed by the miner
	Preproc time.Duration
	PM      time.Duration
	PMJoin  time.Duration
	// PMComparisons / PMJoinComparisons are the join-work counters — the
	// machine-independent cost proxy behind the wall-clock gap.
	PMComparisons     int64
	PMJoinComparisons int64
}

// runVariants mines one window with PM and PM−join and fills a row.
func runVariants(cfg Config, w *World, seeds int, tau float64, win action.Window, label string) (Fig4Row, error) {
	pm, pmNoJoin := variantConfigs(cfg, tau)
	row := Fig4Row{Label: label, Seeds: seeds, Preproc: w.Preproc}

	resPM, err := mining.Mine(w.Store, w.Seeds[:seeds], w.Domain.SeedType, win, pm)
	if err != nil {
		return row, err
	}
	row.PM = resPM.Stats.Mining
	row.Nodes = resPM.Stats.NodesProcessed
	row.PMComparisons = resPM.Stats.Join.Comparisons

	resNJ, err := mining.Mine(w.Store, w.Seeds[:seeds], w.Domain.SeedType, win, pmNoJoin)
	if err != nil {
		return row, err
	}
	row.PMJoin = resNJ.Stats.Mining
	row.PMJoinComparisons = resNJ.Stats.Join.Comparisons
	return row, nil
}

// Fig4a reproduces Figure 4(a): running time as the seed-set size grows
// (100 / 500 / 1000 seeds over the transfer-month window). The paper ran
// this at its default threshold; the synthetic transfer month peaks near
// frequency 0.5, so 0.4 is the setting at which the mining stage performs
// comparable work.
func Fig4a(cfg Config) ([]Fig4Row, error) {
	var rows []Fig4Row
	for _, n := range []int{100, 500, 1000} {
		w, err := BuildWorld(cfg, synth.Soccer(), n)
		if err != nil {
			return nil, err
		}
		row, err := runVariants(cfg, w, n, 0.4, transferMonth(), fmt.Sprintf("%d seeds", n))
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig4b reproduces Figure 4(b): running time as the frequency threshold
// drops (0.7 / 0.4 / 0.2, 500 seeds, the transfer-month window).
func Fig4b(cfg Config) ([]Fig4Row, error) {
	w, err := BuildWorld(cfg, synth.Soccer(), 500)
	if err != nil {
		return nil, err
	}
	var rows []Fig4Row
	for _, tau := range []float64{0.7, 0.4, 0.2} {
		row, err := runVariants(cfg, w, 500, tau, transferMonth(), fmt.Sprintf("tau %.1f", tau))
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig4c reproduces Figure 4(c): running time as the window widens (2 / 4 /
// 8 weeks from the transfer window's start, 500 seeds, threshold 0.4).
func Fig4c(cfg Config) ([]Fig4Row, error) {
	w, err := BuildWorld(cfg, synth.Soccer(), 500)
	if err != nil {
		return nil, err
	}
	var rows []Fig4Row
	for _, weeks := range []int{2, 4, 8} {
		win := action.Window{Start: 4 * action.Week, End: (4 + action.Time(weeks)) * action.Week}
		row, err := runVariants(cfg, w, 500, 0.4, win, fmt.Sprintf("%dW", weeks))
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatFig4 renders Figure 4(a–c) rows.
func FormatFig4(title string, rows []Fig4Row) string {
	header := []string{"setting", "nodes", "preproc", "PM mine", "PM-join mine", "PM cmps", "PM-join cmps"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			fmt.Sprintf("%s (%d)", r.Label, r.Nodes),
			fmt.Sprint(r.Nodes),
			formatDuration(r.Preproc),
			formatDuration(r.PM),
			formatDuration(r.PMJoin),
			fmt.Sprint(r.PMComparisons),
			fmt.Sprint(r.PMJoinComparisons),
		})
	}
	return title + "\n" + renderTable(header, cells)
}

// Fig4dRow is one group of Figure 4(d): the full WC pattern-mining walk at
// a seed size, timed on this host at one join worker and at Workers join
// workers. Windows are mined one at a time, so the join-worker pool inside
// each window is the walk's only parallelism (DESIGN.md documents this
// substitution for the paper's cross-window 16-core run).
type Fig4dRow struct {
	Seeds     int
	Nodes     int
	Windows   int           // (window, step) jobs of the walk
	Workers   int           // join workers of the all-cores run
	OneWorker time.Duration // walk wall clock at one join worker
	AllCores  time.Duration // walk wall clock at Workers join workers
	Speedup   float64       // OneWorker / AllCores
}

// Fig4d reproduces Figure 4(d): WC pattern-mining time on one join worker
// against all cores (cfg.Workers, <=0 = GOMAXPROCS) for growing seed sets.
// Both runs must do the same work; it fails if their work counts differ.
func Fig4d(cfg Config, seedSizes []int) ([]Fig4dRow, error) {
	if len(seedSizes) == 0 {
		seedSizes = []int{500, 1000, 2000, 3000}
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var rows []Fig4dRow
	for _, n := range seedSizes {
		w, err := BuildWorld(cfg, synth.Soccer(), n)
		if err != nil {
			return nil, err
		}
		one, err := fig4dWalk(cfg, w, 1)
		if err != nil {
			return nil, err
		}
		all, err := fig4dWalk(cfg, w, workers)
		if err != nil {
			return nil, err
		}
		a, b := one.Stats, all.Stats
		a.Preprocessing, a.Mining, b.Preprocessing, b.Mining = 0, 0, 0, 0
		if a != b {
			return nil, fmt.Errorf("experiments: Figure 4(d) work diverged between 1 and %d join workers: %+v != %+v",
				workers, a, b)
		}
		row := Fig4dRow{
			Seeds:     n,
			Nodes:     one.Stats.NodesProcessed,
			Windows:   len(one.WindowDurations),
			Workers:   workers,
			OneWorker: one.Elapsed,
			AllCores:  all.Elapsed,
		}
		if all.Elapsed > 0 {
			row.Speedup = float64(one.Elapsed) / float64(all.Elapsed)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// fig4dWalk runs the WC window walk over w's whole span at the given
// join-worker count, without the relative stage: Figure 4(d) measures
// pattern mining.
func fig4dWalk(cfg Config, w *World, joinWorkers int) (*windows.Outcome, error) {
	wcfg := windows.Defaults()
	wcfg.Mining = mining.PM(wcfg.InitialTau)
	wcfg.Mining.MaxAbstraction = cfg.Abstraction
	wcfg.Mining.JoinWorkers = joinWorkers
	wcfg.SkipRelative = true
	return windows.Run(w.Store, w.Seeds, w.Domain.SeedType, w.Span, wcfg)
}

// FormatFig4d renders Figure 4(d) rows under a title naming the host's
// nproc and GOMAXPROCS.
func FormatFig4d(rows []Fig4dRow) string {
	header := []string{"seeds", "nodes", "windows", "1 worker", "all cores", "workers", "speedup"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			fmt.Sprint(r.Seeds),
			fmt.Sprint(r.Nodes),
			fmt.Sprint(r.Windows),
			formatDuration(r.OneWorker),
			formatDuration(r.AllCores),
			fmt.Sprint(r.Workers),
			fmt.Sprintf("%.2fx", r.Speedup),
		})
	}
	return fmt.Sprintf("Figure 4(d): WC pattern mining, 1 join worker vs all cores, measured wall clock (nproc %d, GOMAXPROCS %d)\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0)) + renderTable(header, cells)
}
