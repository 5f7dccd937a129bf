package eval

import (
	"strings"
	"testing"

	"wiclean/internal/action"
	"wiclean/internal/core"
	"wiclean/internal/detect"
	"wiclean/internal/mining"
	"wiclean/internal/pattern"
	"wiclean/internal/synth"
	"wiclean/internal/taxonomy"
	"wiclean/internal/windows"
)

// detectAll runs Algorithm 3 for every discovered pattern over windows of
// its width across the span, as the §6.3 protocol does: a system that did
// not mine o, with no metrics registry.
func detectAll(w *synth.World, o *windows.Outcome) ([]*detect.Report, error) {
	sys := core.New(w.History, windows.Defaults())
	if err := sys.UseOutcome(o); err != nil {
		return nil, err
	}
	return sys.DetectErrors(1)
}

// pipeline runs the full mine→score flow on a small soccer world. Results
// are cached per seed count — the flow is deterministic and several tests
// inspect the same outcome.
var pipeCache = map[int]struct {
	w *synth.World
	o *windows.Outcome
}{}

func pipeline(t *testing.T, seeds int) (*synth.World, *windows.Outcome) {
	t.Helper()
	if c, ok := pipeCache[seeds]; ok {
		return c.w, c.o
	}
	p := synth.DefaultParams(synth.Soccer(), seeds)
	w, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := windows.Defaults()
	cfg.Mining = mining.PM(cfg.InitialTau)
	cfg.Mining.MaxAbstraction = 1
	o, err := windows.Run(w.History, w.Seeds, w.Domain.SeedType, w.Span, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pipeCache[seeds] = struct {
		w *synth.World
		o *windows.Outcome
	}{w, o}
	return w, o
}

func TestScorePatternsAgainstCatalog(t *testing.T) {
	w, o := pipeline(t, 150)
	q := ScorePatterns(o, w)
	if q.Mined == 0 {
		t.Fatal("nothing mined")
	}
	if q.Precision < 0.8 {
		t.Errorf("precision %.2f below 0.8", q.Precision)
	}
	if q.Recall < 0.5 {
		t.Errorf("recall %.2f below 0.5", q.Recall)
	}
	// The window-less scenarios must be among the missed ones.
	missed := strings.Join(q.Missed, ",")
	for _, name := range []string{"testimonial-match", "squad-number-change"} {
		if !strings.Contains(missed, name) {
			t.Errorf("window-less scenario %s unexpectedly found", name)
		}
	}
	if q.MatchedExact+q.MatchedSub+q.Spurious != q.Mined {
		t.Error("match categories must partition the mined set")
	}
	if !strings.Contains(q.Format(), "precision") {
		t.Error("Format should render")
	}
}

func TestScoreSignalsClassification(t *testing.T) {
	w, o := pipeline(t, 150)
	reports, err := detectAll(w, o)
	if err != nil {
		t.Fatal(err)
	}
	e := ScoreSignals(w, reports)
	if e.Signaled == 0 {
		t.Fatal("no signals")
	}
	if e.Corrected+e.RealUnnoticed+e.Benign+e.Unmatched != e.Signaled {
		t.Error("classification must partition the signals")
	}
	if e.Corrected == 0 {
		t.Error("some signals should trace to corrected errors")
	}
	if e.TruthDetected > e.TruthErrors {
		t.Error("detected cannot exceed injected")
	}
	if e.DetectionRecall() < 0.5 {
		t.Errorf("detection recall %.2f below 0.5", e.DetectionRecall())
	}
	if r := e.CorrectedRate(); r <= 0 || r > 1 {
		t.Errorf("CorrectedRate = %v", r)
	}
	if r := e.VerifiedRate(); r < 0 || r > 1 {
		t.Errorf("VerifiedRate = %v", r)
	}
	if !strings.Contains(e.Format(), "signaled") {
		t.Error("Format should render")
	}
}

func TestScoreSignalsEmpty(t *testing.T) {
	w, _ := pipeline(t, 150)
	e := ScoreSignals(w, nil)
	if e.Signaled != 0 || e.CorrectedRate() != 0 || e.VerifiedRate() != 0 {
		t.Errorf("empty evaluation = %+v", e)
	}
	// TruthErrors still counts the injected ground truth.
	if e.TruthErrors == 0 {
		t.Error("TruthErrors should reflect the world")
	}
}

func TestVerifiedRateFallbackAggregates(t *testing.T) {
	e := ErrorEvaluation{Signaled: 10, Corrected: 4, RealUnnoticed: 5, Benign: 1}
	got := e.VerifiedRate()
	if got < 0.82 || got > 0.85 { // 5/6
		t.Errorf("fallback VerifiedRate = %v, want 5/6", got)
	}
	e.perPatternVerified = []float64{1.0, 0.5}
	if got := e.VerifiedRate(); got != 0.75 {
		t.Errorf("per-pattern VerifiedRate = %v, want 0.75", got)
	}
}

func TestSuggestionsMatchBinding(t *testing.T) {
	om := []action.Action{{
		Op:   action.Remove,
		Edge: action.Edge{Src: 7, Label: "squad", Dst: 3},
	}}
	mk := func(src, dst taxonomy.EntityID) detect.PartialEdit {
		return detect.PartialEdit{Suggestions: []detect.Suggestion{{
			Op: action.Remove, Src: src, Label: "squad", Dst: dst,
		}}}
	}
	if !suggestionsMatch(mk(7, 3), om) {
		t.Error("exact match should hold")
	}
	if !suggestionsMatch(mk(taxonomy.NoEntity, 3), om) {
		t.Error("unbound src should match")
	}
	if suggestionsMatch(mk(8, 3), om) {
		t.Error("wrong src must not match")
	}
	if suggestionsMatch(mk(7, 4), om) {
		t.Error("wrong dst must not match")
	}
	wrongOp := detect.PartialEdit{Suggestions: []detect.Suggestion{{
		Op: action.Add, Src: 7, Label: "squad", Dst: 3,
	}}}
	if suggestionsMatch(wrongOp, om) {
		t.Error("wrong op must not match")
	}
}

// TestDetectErrorsSplitsByWidth checks the detection the §6.3 scoring
// runs on: core.System.DetectErrors over a mined outcome it did not mine.
func TestDetectErrorsSplitsByWidth(t *testing.T) {
	w, o := pipeline(t, 150)
	reports, err := detectAll(w, o)
	if err != nil {
		t.Fatal(err)
	}
	// Each discovered pattern contributes ceil(span/width) reports.
	want := 0
	for _, d := range o.Discovered {
		want += len(o.Span.Split(d.Width))
	}
	if len(reports) != want {
		t.Errorf("reports = %d, want %d", len(reports), want)
	}
	// Report patterns must come from the discovered set.
	known := map[string]bool{}
	for _, d := range o.Discovered {
		known[d.Pattern.Canonical()] = true
	}
	for _, rep := range reports {
		if !known[rep.Pattern.Canonical()] {
			t.Fatalf("report for unknown pattern %s", rep.Pattern)
		}
	}
}

func TestF1(t *testing.T) {
	if f1(0, 0) != 0 {
		t.Error("f1(0,0) should be 0")
	}
	if got := f1(1, 1); got != 1 {
		t.Errorf("f1(1,1) = %v", got)
	}
	if got := f1(0.5, 1); got < 0.66 || got > 0.67 {
		t.Errorf("f1(0.5,1) = %v", got)
	}
}

func TestScorePatternsRelativeContributesToRecall(t *testing.T) {
	// Build an outcome whose Windows carry a relative pattern equal to a
	// catalog entry not among the discovered ones; recall must count it.
	p := synth.DefaultParams(synth.Soccer(), 50)
	w, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	catalog := w.CatalogPatterns()
	target := catalog[0].Pattern
	o := &windows.Outcome{
		Discovered: nil,
		Windows: []windows.WindowResult{{
			Relative: map[string][]mining.RelativePattern{
				"base": {{Pattern: target}},
			},
		}},
	}
	q := ScorePatterns(o, w)
	found := false
	for _, name := range q.Found {
		if name == catalog[0].Name {
			found = true
		}
	}
	if !found {
		t.Error("relative pattern should contribute to recall")
	}
	if q.Mined != 0 {
		t.Error("relative patterns must not enter the precision denominator")
	}
	_ = pattern.Pattern{}
}
