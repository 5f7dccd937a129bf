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
	drows := []Fig4dRow{{Seeds: 1, Workers: 2, OneWorker: time.Second, AllCores: 600 * time.Millisecond, Speedup: 1.67}}
	if d := FormatFig4d(drows); !strings.Contains(d, "nproc") || !strings.Contains(d, "GOMAXPROCS") || !strings.Contains(d, "1.67x") {
		t.Errorf("FormatFig4d:\n%s", d)
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

// TestFig4dSmall checks Figure 4(d)'s shape: both walks are timed, the
// parallel one at the configured pool size, and Fig4d accepted their work
// counts as equal.
func TestFig4dSmall(t *testing.T) {
	cfg := smallCfg()
	cfg.Workers = 2
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
	if r.Workers != 2 {
		t.Errorf("all-cores run at %d join workers, want 2", r.Workers)
	}
	if r.OneWorker <= 0 || r.AllCores <= 0 || r.Speedup <= 0 {
		t.Errorf("measurements missing: %+v", r)
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
