// Benchmarks regenerating the paper's evaluation, one per table/figure
// (§6), plus ablation and microbenchmarks for the load-bearing substrates.
// Absolute numbers depend on this host; the shapes — PM beating PM−join,
// cost growing with seeds / lower thresholds / wider windows, incremental
// construction pruning candidates — are the reproduction targets (see
// EXPERIMENTS.md).
//
//	go test -bench=. -benchmem
package wiclean_test

import (
	"fmt"
	"sync"
	"testing"

	"wiclean/internal/action"
	"wiclean/internal/core"
	"wiclean/internal/detect"
	"wiclean/internal/dump"
	"wiclean/internal/eval"
	"wiclean/internal/experiments"
	"wiclean/internal/mining"
	"wiclean/internal/pattern"
	"wiclean/internal/relational"
	"wiclean/internal/synth"
	"wiclean/internal/taxonomy"
	"wiclean/internal/windows"
)

// Worlds are expensive to generate; cache them across benchmarks.
var (
	worldMu    sync.Mutex
	worldCache = map[string]*synth.World{}
)

func benchWorld(b *testing.B, domain synth.Domain, seeds int) *synth.World {
	b.Helper()
	key := fmt.Sprintf("%s/%d", domain.Name, seeds)
	worldMu.Lock()
	defer worldMu.Unlock()
	if w, ok := worldCache[key]; ok {
		return w
	}
	p := synth.DefaultParams(domain, seeds)
	w, err := synth.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	worldCache[key] = w
	return w
}

func transferMonth() action.Window {
	return action.Window{Start: 4 * action.Week, End: 8 * action.Week}
}

// mineBench runs Algorithm 1 repeatedly with the given variant config.
func mineBench(b *testing.B, w *synth.World, seeds int, cfg mining.Config, win action.Window) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := mining.Mine(w.History, w.Seeds[:seeds], w.Domain.SeedType, win, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Stats.Candidates), "candidates")
			b.ReportMetric(float64(res.Stats.Join.Comparisons), "comparisons")
		}
	}
}

// BenchmarkFig4aSeedSize is Figure 4(a): PM vs PM−join as the seed set
// grows (transfer-month window, tau 0.4).
func BenchmarkFig4aSeedSize(b *testing.B) {
	for _, n := range []int{100, 500, 1000} {
		w := benchWorld(b, synth.Soccer(), n)
		for _, variant := range []struct {
			name string
			cfg  mining.Config
		}{
			{"PM", mining.PM(0.4)},
			{"PM-join", mining.PMNoJoin(0.4)},
		} {
			cfg := variant.cfg
			cfg.MaxAbstraction = 1
			b.Run(fmt.Sprintf("seeds=%d/%s", n, variant.name), func(b *testing.B) {
				mineBench(b, w, n, cfg, transferMonth())
			})
		}
	}
}

// BenchmarkFig4bThreshold is Figure 4(b): PM vs PM−join as the frequency
// threshold drops (500 seeds, transfer month).
func BenchmarkFig4bThreshold(b *testing.B) {
	w := benchWorld(b, synth.Soccer(), 500)
	for _, tau := range []float64{0.7, 0.4, 0.2} {
		for _, variant := range []struct {
			name string
			mk   func(float64) mining.Config
		}{
			{"PM", mining.PM},
			{"PM-join", mining.PMNoJoin},
		} {
			cfg := variant.mk(tau)
			cfg.MaxAbstraction = 1
			b.Run(fmt.Sprintf("tau=%.1f/%s", tau, variant.name), func(b *testing.B) {
				mineBench(b, w, 500, cfg, transferMonth())
			})
		}
	}
}

// BenchmarkFig4cWindow is Figure 4(c): PM vs PM−join as the mined window
// widens (500 seeds, tau 0.4).
func BenchmarkFig4cWindow(b *testing.B) {
	w := benchWorld(b, synth.Soccer(), 500)
	for _, weeks := range []action.Time{2, 4, 8} {
		win := action.Window{Start: 4 * action.Week, End: (4 + weeks) * action.Week}
		for _, variant := range []struct {
			name string
			mk   func(float64) mining.Config
		}{
			{"PM", mining.PM},
			{"PM-join", mining.PMNoJoin},
		} {
			cfg := variant.mk(0.4)
			cfg.MaxAbstraction = 1
			b.Run(fmt.Sprintf("weeks=%d/%s", weeks, variant.name), func(b *testing.B) {
				mineBench(b, w, 500, cfg, win)
			})
		}
	}
}

// BenchmarkFig4dParallel is Figure 4(d)'s workload: the full WC window walk
// with 1 join worker vs all cores. Windows run one at a time, so the join
// pool inside each window is the walk's only parallelism; experiments.Fig4d
// times the same two runs.
func BenchmarkFig4dParallel(b *testing.B) {
	w := benchWorld(b, synth.Soccer(), 150)
	for _, workers := range []int{1, 0} {
		b.Run(fmt.Sprintf("joinworkers=%d", workers), func(b *testing.B) {
			cfg := windows.Defaults()
			cfg.Mining = mining.PM(cfg.InitialTau)
			cfg.Mining.MaxAbstraction = 1
			cfg.Mining.JoinWorkers = workers
			cfg.SkipRelative = true
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := windows.Run(w.History, w.Seeds, w.Domain.SeedType, w.Span, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMineJoinWorkers shards Algorithm 1's candidate-extension loop
// across 1, 2, 4 and 8 join workers inside a single window (Soccer, 500
// seeds, 8-week window, τ 0.2) and reports the measured time of each pool
// size. Gains beyond nproc workers need more cores; the candidates and
// comparisons metrics must read the same at every pool size.
func BenchmarkMineJoinWorkers(b *testing.B) {
	w := benchWorld(b, synth.Soccer(), 500)
	win := action.Window{Start: 4 * action.Week, End: 12 * action.Week}
	for _, jw := range []int{1, 2, 4, 8} {
		cfg := mining.PM(0.2)
		cfg.MaxAbstraction = 1
		cfg.JoinWorkers = jw
		b.Run(fmt.Sprintf("%d", jw), func(b *testing.B) {
			mineBench(b, w, 500, cfg, win)
		})
	}
}

// BenchmarkSmallDataCandidates is the §6.2 experiment: candidates
// considered with and without incremental graph construction.
func BenchmarkSmallDataCandidates(b *testing.B) {
	w := benchWorld(b, synth.Soccer(), 200)
	for _, variant := range []struct {
		name string
		cfg  mining.Config
	}{
		{"incremental", mining.PM(0.4)},
		{"full-graph", mining.PMNoInc(0.4)},
	} {
		cfg := variant.cfg
		cfg.MaxAbstraction = 1
		b.Run(variant.name, func(b *testing.B) {
			mineBench(b, w, 200, cfg, transferMonth())
		})
	}
}

// BenchmarkTable1Heuristics measures the refinement policies of Table 1.
func BenchmarkTable1Heuristics(b *testing.B) {
	w := benchWorld(b, synth.Soccer(), 150)
	for _, set := range experiments.Table1Settings() {
		b.Run(fmt.Sprintf("w=%.1fx,cut=%.0f%%", set.WindowFactor, 100*set.TauCut), func(b *testing.B) {
			cfg := windows.Defaults()
			cfg.WindowFactor = set.WindowFactor
			cfg.TauCut = set.TauCut
			cfg.Mining = mining.PM(cfg.InitialTau)
			cfg.Mining.MaxAbstraction = 1
			cfg.SkipRelative = true
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := windows.Run(w.History, w.Seeds, w.Domain.SeedType, w.Span, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQualityPipeline is the §6.3 protocol end to end on a small
// soccer world: mine, detect, score.
func BenchmarkQualityPipeline(b *testing.B) {
	w := benchWorld(b, synth.Soccer(), 100)
	cfg := windows.Defaults()
	cfg.Mining = mining.PM(cfg.InitialTau)
	cfg.Mining.MaxAbstraction = 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o, err := windows.Run(w.History, w.Seeds, w.Domain.SeedType, w.Span, cfg)
		if err != nil {
			b.Fatal(err)
		}
		sys := core.New(w.History, cfg)
		if err := sys.UseOutcome(o); err != nil {
			b.Fatal(err)
		}
		reports, err := sys.DetectErrors(0)
		if err != nil {
			b.Fatal(err)
		}
		ee := eval.ScoreSignals(w, reports)
		if i == 0 {
			b.ReportMetric(float64(ee.Signaled), "signals")
		}
	}
}

// BenchmarkDetectPartials is Algorithm 3 alone over the transfer pattern.
func BenchmarkDetectPartials(b *testing.B) {
	w := benchWorld(b, synth.Soccer(), 500)
	p := pattern.Pattern{
		Vars: []taxonomy.Type{"FootballPlayer", "FootballClub", "FootballClub"},
		Actions: []pattern.AbstractAction{
			{Op: action.Add, Src: 0, Label: "current_club", Dst: 1},
			{Op: action.Remove, Src: 0, Label: "current_club", Dst: 2},
			{Op: action.Add, Src: 1, Label: "squad", Dst: 0},
			{Op: action.Remove, Src: 2, Label: "squad", Dst: 0},
		},
	}
	d := detect.New(w.History)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := d.FindPartials(p, transferMonth()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationReduction measures mining with and without action-set
// reduction (the rumor/revert rows survive without it).
func BenchmarkAblationReduction(b *testing.B) {
	w := benchWorld(b, synth.Soccer(), 200)
	for _, variant := range []struct {
		name     string
		noReduce bool
	}{
		{"reduced", false},
		{"unreduced", true},
	} {
		cfg := mining.PM(0.4)
		cfg.MaxAbstraction = 1
		cfg.NoReduce = variant.noReduce
		b.Run(variant.name, func(b *testing.B) {
			mineBench(b, w, 200, cfg, transferMonth())
		})
	}
}

// BenchmarkAblationHierarchy measures the candidate cost of mining at
// increasing abstraction depths (the type-hierarchy blow-up of §4).
func BenchmarkAblationHierarchy(b *testing.B) {
	w := benchWorld(b, synth.Soccer(), 200)
	for _, levels := range []int{0, 1, 2} {
		cfg := mining.PM(0.4)
		cfg.MaxAbstraction = levels
		cfg.MaxActions = 3
		b.Run(fmt.Sprintf("levels=%d", levels), func(b *testing.B) {
			mineBench(b, w, 200, cfg, transferMonth())
		})
	}
}

// BenchmarkRelationalJoin compares the engine's physical join strategies
// on realization-table-shaped inputs.
func BenchmarkRelationalJoin(b *testing.B) {
	l := relational.NewTable("v0", "v1")
	r := relational.NewTable("src", "dst")
	for i := 0; i < 2000; i++ {
		l.Append(relational.Row{relational.Value(i % 500), relational.Value(i)})
		r.Append(relational.Row{relational.Value(i % 500), relational.Value(i + 10000)})
	}
	spec := relational.JoinSpec{
		EqL: []int{0}, EqR: []int{0},
		NeqL: []int{1}, NeqR: []int{1},
		LOut: []int{0, 1}, ROut: []int{1},
	}
	for _, strat := range []relational.Strategy{relational.HashStrategy, relational.NestedLoop} {
		b.Run(strat.String(), func(b *testing.B) {
			e := &relational.Engine{Strategy: strat}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.Join(l, r, spec)
			}
		})
	}
}

// BenchmarkRelationalOuterJoin measures the detector's operator.
func BenchmarkRelationalOuterJoin(b *testing.B) {
	l := relational.NewTable("v0", "v1", "m0")
	r := relational.NewTable("v1", "v0", "m1")
	for i := 0; i < 2000; i++ {
		l.Append(relational.Row{relational.Value(i), relational.Value(i % 700), 1})
		if i%3 != 0 { // a third of the left rows will be partial
			r.Append(relational.Row{relational.Value(i % 700), relational.Value(i), 1})
		}
	}
	spec := relational.JoinSpec{
		EqL: []int{0, 1}, EqR: []int{1, 0},
		LOut: []int{0, 1, 2}, ROut: []int{2},
	}
	e := &relational.Engine{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.FullOuterJoin(l, r, spec)
	}
}

// BenchmarkReduce measures action-set reduction on a noisy log.
func BenchmarkReduce(b *testing.B) {
	w := benchWorld(b, synth.Soccer(), 500)
	all := w.History.AllActions(w.Span)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		action.Reduce(all)
	}
}

// BenchmarkCanonical measures pattern canonicalization, the dedup hot path.
func BenchmarkCanonical(b *testing.B) {
	p := pattern.Pattern{
		Vars: []taxonomy.Type{"FootballPlayer", "FootballClub", "FootballClub", "SportsLeague", "SportsLeague"},
		Actions: []pattern.AbstractAction{
			{Op: action.Add, Src: 0, Label: "current_club", Dst: 1},
			{Op: action.Remove, Src: 0, Label: "current_club", Dst: 2},
			{Op: action.Add, Src: 1, Label: "squad", Dst: 0},
			{Op: action.Remove, Src: 2, Label: "squad", Dst: 0},
			{Op: action.Add, Src: 0, Label: "in_league", Dst: 3},
			{Op: action.Remove, Src: 0, Label: "in_league", Dst: 4},
		},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Canonical()
	}
}

// BenchmarkWikitextIngest measures the preprocessing path: rendering a
// world to wikitext revisions happens once; the ingest (parse + diff) is
// the per-run preprocessing cost of Figure 4.
func BenchmarkWikitextIngest(b *testing.B) {
	w := benchWorld(b, synth.Soccer(), 100)
	revs := w.RevisionDump()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := dump.NewHistory(w.Reg)
		if err := h.IngestRevisions(revs); err != nil {
			b.Fatal(err)
		}
	}
}
