package experiments

import (
	"slices"
	"strings"
	"testing"
	"time"

	"wiclean/internal/synth"
)

// smallCfg keeps experiment tests fast: no dump round trip, base types.
func smallCfg() Config {
	return Config{Seed: 1, Workers: 1, Abstraction: 0, ViaDump: false}
}

func TestBuildWorldViaDumpMeasuresPreproc(t *testing.T) {
	cfg := smallCfg()
	cfg.ViaDump = true
	w, err := BuildWorld(cfg, synth.USPoliticians(), 40)
	if err != nil {
		t.Fatal(err)
	}
	if w.Preproc <= 0 {
		t.Error("preprocessing time should be measured")
	}
	if w.Store == w.History {
		t.Error("ViaDump should rebuild the store from revisions")
	}
	if w.Store.ActionCount() == 0 {
		t.Error("reingested store is empty")
	}
}

func TestRunVariantsProducesConsistentRow(t *testing.T) {
	cfg := smallCfg()
	w, err := BuildWorld(cfg, synth.Soccer(), 80)
	if err != nil {
		t.Fatal(err)
	}
	row, err := runVariants(cfg, w, 80, 0.4, transferMonth(), "80 seeds")
	if err != nil {
		t.Fatal(err)
	}
	if row.Nodes == 0 {
		t.Error("node count missing")
	}
	if row.PM <= 0 || row.PMJoin <= 0 {
		t.Error("mining times missing")
	}
	// The nested loop must do at least as many comparisons as the hash
	// join — that is the entire point of the optimization.
	if row.PMJoinComparisons < row.PMComparisons {
		t.Errorf("PM-join comparisons %d < PM %d", row.PMJoinComparisons, row.PMComparisons)
	}
}

func TestFig4bThresholdMonotonicity(t *testing.T) {
	cfg := smallCfg()
	w, err := BuildWorld(cfg, synth.Soccer(), 80)
	if err != nil {
		t.Fatal(err)
	}
	// Lower thresholds consider at least as much join work.
	hi, err := runVariants(cfg, w, 80, 0.7, transferMonth(), "hi")
	if err != nil {
		t.Fatal(err)
	}
	lo, err := runVariants(cfg, w, 80, 0.2, transferMonth(), "lo")
	if err != nil {
		t.Fatal(err)
	}
	if lo.PMComparisons < hi.PMComparisons {
		t.Errorf("comparisons should grow as tau drops: %d at 0.2 vs %d at 0.7",
			lo.PMComparisons, hi.PMComparisons)
	}
}

func TestSmallDataIncrementalPrunes(t *testing.T) {
	res, err := SmallData(smallCfg(), 60)
	if err != nil {
		t.Fatal(err)
	}
	if res.IncrementalCandidates >= res.FullGraphCandidates {
		t.Errorf("incremental %d should consider fewer candidates than full %d",
			res.IncrementalCandidates, res.FullGraphCandidates)
	}
	if res.IncrementalNodes >= res.FullGraphNodes {
		t.Errorf("incremental %d should touch fewer nodes than full %d",
			res.IncrementalNodes, res.FullGraphNodes)
	}
	if !strings.Contains(res.Format(), "candidates") {
		t.Error("Format should render")
	}
}

func TestLptMakespan(t *testing.T) {
	jobs := []time.Duration{8, 7, 6, 5, 4, 3, 2, 1}
	if got := lptMakespan(jobs, 1); got != 36 {
		t.Errorf("k=1 makespan = %d", got)
	}
	got := lptMakespan(jobs, 4)
	if got < 9 || got > 12 {
		t.Errorf("k=4 LPT makespan = %d, want near 9", got)
	}
	if got := lptMakespan(nil, 4); got != 0 {
		t.Errorf("empty jobs = %d", got)
	}
	if got := lptMakespan(jobs, 100); got != 8 {
		t.Errorf("more workers than jobs = %d, want max job", got)
	}
}

func TestTable1ChosenPolicyCompetitive(t *testing.T) {
	rows, err := Table1(smallCfg(), 120)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The chosen policy (2.0x, 20%) must be among the best by F1.
	best := 0.0
	for _, r := range rows {
		if r.F1 > best {
			best = r.F1
		}
	}
	if rows[0].F1 < best-0.15 {
		t.Errorf("chosen policy F1 %.2f far below best %.2f", rows[0].F1, best)
	}
	// The no-widen policy stops earlier than the chosen one.
	if rows[1].Steps > rows[0].Steps {
		t.Errorf("(1.0x, 20%%) walked %d steps, more than (2.0x, 20%%)'s %d",
			rows[1].Steps, rows[0].Steps)
	}
	if !strings.Contains(FormatTable1(rows), "2.0x, 20%") {
		t.Error("FormatTable1 should render settings")
	}
}

func TestAblationsShapes(t *testing.T) {
	rows, err := Ablations(smallCfg(), 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	base, noReduce, noHier, fullHier := rows[0], rows[1], rows[2], rows[3]
	if noReduce.Actions <= base.Actions {
		t.Errorf("no-reduction should process more actions: %d vs %d",
			noReduce.Actions, base.Actions)
	}
	if fullHier.Candidates < noHier.Candidates {
		t.Errorf("full hierarchy should consider at least as many candidates: %d vs %d",
			fullHier.Candidates, noHier.Candidates)
	}
	if !strings.Contains(FormatAblations(rows), "reduction") {
		t.Error("FormatAblations should render")
	}
}

func TestQualitySmokeAndFormat(t *testing.T) {
	if testing.Short() {
		t.Skip("quality experiment is slow")
	}
	cfg := smallCfg()
	cfg.Abstraction = 1
	rows, err := Quality(cfg, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The catalog result at this 100-seed scale, pinned exactly: which
	// scenarios are recovered and which are missed.
	want := map[string]struct {
		found  int
		missed []string
	}{
		"soccer":         {7, []string{"squad-number-change", "testimonial-match", "transfer-full", "transfer-simple"}},
		"cinematography": {7, []string{"archive-footage"}},
		"us-politicians": {4, []string{"constituency-office"}},
	}
	for _, r := range rows {
		if r.Precision < 0.8 {
			t.Errorf("%s precision %.2f below 0.8", r.Domain, r.Precision)
		}
		w, ok := want[r.Domain]
		if !ok {
			t.Errorf("unexpected domain %q", r.Domain)
			continue
		}
		if r.Found != w.found || !slices.Equal(r.Missed, w.missed) {
			t.Errorf("%s: found %d, missed %q; want found %d, missed %q",
				r.Domain, r.Found, r.Missed, w.found, w.missed)
		}
	}
	text := FormatQuality(rows)
	if !strings.Contains(text, "soccer") || !strings.Contains(text, "paper") {
		t.Error("FormatQuality should render paper reference")
	}
}

func TestFig4FormattersRender(t *testing.T) {
	rows := []Fig4Row{{Label: "x", Seeds: 1, Nodes: 2, PM: time.Millisecond, PMJoin: 2 * time.Millisecond}}
	if !strings.Contains(FormatFig4("t", rows), "PM mine") {
		t.Error("FormatFig4")
	}
	drows := []Fig4dRow{{Seeds: 1, OneWorker: time.Second, Sixteen: 100 * time.Millisecond, Speedup: 10}}
	if !strings.Contains(FormatFig4d(drows), "16 cores") {
		t.Error("FormatFig4d")
	}
}

func TestRenderTableAlignment(t *testing.T) {
	out := renderTable([]string{"a", "bb"}, [][]string{{"xxx", "y"}})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %v", lines)
	}
	if len(lines[0]) != len(lines[1]) {
		t.Error("divider should match header width")
	}
}

func TestFig4dSmall(t *testing.T) {
	cfg := smallCfg()
	rows, err := Fig4d(cfg, []int{30})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.Windows == 0 {
		t.Error("no per-window jobs recorded")
	}
	if r.OneWorker <= 0 || r.Sixteen <= 0 {
		t.Errorf("durations missing: %+v", r)
	}
	if r.Speedup < 1 {
		t.Errorf("LPT speedup %.2f below 1", r.Speedup)
	}
	if r.Sixteen > r.OneWorker {
		t.Error("16-worker makespan cannot exceed the serial time")
	}
}

func TestTable1SettingsMatchPaper(t *testing.T) {
	sets := Table1Settings()
	if len(sets) != 5 {
		t.Fatalf("settings = %d", len(sets))
	}
	if sets[0].WindowFactor != 2.0 || sets[0].TauCut != 0.20 {
		t.Error("the first setting must be WC's chosen policy")
	}
}
