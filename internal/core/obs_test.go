package core

import (
	"testing"

	"wiclean/internal/action"
	"wiclean/internal/obs"
)

// TestNilRegistryNoOp drives the whole pipeline — mine, detect, single
// pattern detection, assistance, periodicity — with no registry attached
// (the library default) and with an explicitly nil one: both must behave
// exactly like an instrumented run.
func TestNilRegistryNoOp(t *testing.T) {
	h, players, span := fixture(t)
	sys := New(h, testConfig()).WithObs(nil)
	if sys.Obs() != nil {
		t.Fatal("Obs() should be nil")
	}
	o, err := sys.Mine(players, "FootballPlayer", span)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Discovered) == 0 {
		t.Fatal("no patterns without a registry")
	}
	reports, err := sys.DetectErrors(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) == 0 {
		t.Fatal("no reports without a registry")
	}
	if _, err := sys.DetectPattern(o.Discovered[0].Pattern, action.Window{Start: 0, End: 8 * action.Week}); err != nil {
		t.Fatal(err)
	}
	as, err := sys.Assistant()
	if err != nil {
		t.Fatal(err)
	}
	clubs := sys.Registry().EntitiesOf("FootballClub")
	edit := action.Action{
		Op:   action.Add,
		Edge: action.Edge{Src: players[9], Label: "current_club", Dst: clubs[19]},
		T:    5 * action.Week,
	}
	if advices, err := as.Suggest(edit, edit.T); err != nil || len(advices) == 0 {
		t.Errorf("assistant silent without a registry (err %v)", err)
	}
	if _, err := sys.PeriodicPatterns(0.35); err != nil {
		t.Fatal(err)
	}
}

// TestObsParityWithNil checks the observed run produces the same pipeline
// results as the unobserved one, and that the registry actually filled.
func TestObsParityWithNil(t *testing.T) {
	h, players, span := fixture(t)
	plain := New(h, testConfig())
	op, err := plain.Mine(players, "FootballPlayer", span)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	observed := New(h, testConfig()).WithObs(reg)
	oo, err := observed.Mine(players, "FootballPlayer", span)
	if err != nil {
		t.Fatal(err)
	}
	if len(op.Discovered) != len(oo.Discovered) {
		t.Fatalf("observed mine found %d patterns, plain %d", len(oo.Discovered), len(op.Discovered))
	}
	for i := range op.Discovered {
		if op.Discovered[i].Pattern.Canonical() != oo.Discovered[i].Pattern.Canonical() {
			t.Errorf("pattern %d differs between observed and plain runs", i)
		}
	}
	if _, err := observed.DetectErrors(1); err != nil {
		t.Fatal(err)
	}

	s := reg.Snapshot()
	if s.Counters[obs.MiningRuns] == 0 {
		t.Error("mining runs counter empty after an observed mine")
	}
	if s.Counters[obs.MiningPatternsAdmitted] == 0 {
		t.Error("patterns admitted counter empty")
	}
	if s.Counters[obs.WindowsRefinementSteps] == 0 {
		t.Error("refinement steps counter empty")
	}
	if s.Counters[obs.DetectRuns] == 0 {
		t.Error("detect runs counter empty")
	}
	if s.Histograms[obs.MiningSeconds].Count == 0 {
		t.Error("mining duration histogram empty")
	}
}
