package core

import (
	"reflect"
	"testing"

	"wiclean/internal/action"
	"wiclean/internal/assist"
	"wiclean/internal/detect"
	"wiclean/internal/pattern"
	"wiclean/internal/synth"
)

// periodicOracle is PeriodicPatterns as it was before it read
// DetectErrors' reports: Algorithm 3 again, serially, for every
// discovered pattern over every window of its width.
func periodicOracle(t *testing.T, s *System, tolerance float64) []assist.PeriodicPattern {
	t.Helper()
	d := detect.New(s.store)
	occ := map[string][]assist.Occurrence{}
	pats := map[string]pattern.Pattern{}
	for _, disc := range s.outcome.Discovered {
		key := disc.Pattern.Canonical()
		pats[key] = disc.Pattern
		for _, win := range s.outcome.Span.Split(disc.Width) {
			rep, err := d.FindPartials(disc.Pattern, win)
			if err != nil {
				t.Fatal(err)
			}
			if rep.FullCount > 0 {
				freq := float64(rep.FullCount)
				if n := len(s.outcome.Seeds); n > 0 {
					freq /= float64(n)
				}
				occ[key] = append(occ[key], assist.Occurrence{Window: win, Frequency: freq})
			}
		}
	}
	return assist.FindPeriodic(occ, pats, tolerance)
}

// TestPeriodicMatchesPerTaskOracle checks that the periodic patterns read
// from DetectErrors' reports are the ones the per-task loop finds, on the
// two-season fixture and on a two-year Soccer world, for a mined outcome
// and for one without seeds (as a model file loads it), at several
// tolerances.
func TestPeriodicMatchesPerTaskOracle(t *testing.T) {
	h, players, span := fixture(t)
	fix := New(h, testConfig())
	if _, err := fix.Mine(players, "FootballPlayer", span); err != nil {
		t.Fatal(err)
	}
	p := synth.DefaultParams(synth.Soccer(), 30)
	p.Span = action.Window{Start: 0, End: 2 * action.Year}
	w, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	soccer := New(w.History, testConfig())
	if _, err := soccer.Mine(w.Seeds, w.Domain.SeedType, w.Span); err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, tc := range []struct {
		name string
		sys  *System
	}{{"fixture", fix}, {"soccer", soccer}} {
		seedless := *tc.sys.Outcome()
		seedless.Seeds = nil
		loaded := New(tc.sys.Store(), testConfig())
		if err := loaded.UseOutcome(&seedless); err != nil {
			t.Fatal(err)
		}
		for _, sys := range []*System{tc.sys, loaded} {
			reports, err := sys.DetectErrors(2)
			if err != nil {
				t.Fatal(err)
			}
			for _, tol := range []float64{0.1, 0.35, 0.5, 1} {
				want := periodicOracle(t, sys, tol)
				found += len(want)
				if got := sys.Periodic(reports, tol); !reflect.DeepEqual(got, want) {
					t.Errorf("%s, %d seeds, tolerance %v: Periodic\n got %v\nwant %v", tc.name, len(sys.Outcome().Seeds), tol, got, want)
				}
				got, err := sys.PeriodicPatterns(tol)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s, %d seeds, tolerance %v: PeriodicPatterns\n got %v\nwant %v", tc.name, len(sys.Outcome().Seeds), tol, got, want)
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("the oracle found no periodic pattern; the comparison shows nothing")
	}
}
