package windows

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"wiclean/internal/action"
	"wiclean/internal/dump"
	"wiclean/internal/mining"
	"wiclean/internal/obs"
	"wiclean/internal/pattern"
	"wiclean/internal/taxonomy"
)

type world struct {
	reg     *taxonomy.Registry
	store   *dump.History
	players []taxonomy.EntityID
	clubs   []taxonomy.EntityID
	span    action.Window
}

func newWorld(t *testing.T, nPlayers int) *world {
	t.Helper()
	x := taxonomy.New()
	x.AddChain("Person", "Athlete", "FootballPlayer")
	x.AddChain("Organisation", "FootballClub")
	reg := taxonomy.NewRegistry(x)
	w := &world{reg: reg, store: dump.NewHistory(reg), span: action.Window{Start: 0, End: 8 * action.Week}}
	for i := 0; i < nPlayers; i++ {
		w.players = append(w.players, reg.MustAdd("P"+string(rune('A'+i)), "FootballPlayer"))
	}
	// Two dedicated clubs per player so each transfer uses a distinct
	// (from, to) pair — mirroring the sparsity of real club/player
	// interactions, where cross-player co-occurrence patterns stay rare.
	for i := 0; i < 2*nPlayers; i++ {
		w.clubs = append(w.clubs, reg.MustAdd(fmt.Sprintf("C%02d", i), "FootballClub"))
	}
	return w
}

// transferP emits the full four-edit move of player p between its two
// dedicated clubs at time ts, spreading the squad edits by gap.
func (w *world) transferP(p int, ts, gap action.Time) {
	w.transfer(p, 2*p, 2*p+1, ts, gap)
}

// transfer emits the full four-edit move of player p from club a to club b
// at time ts, optionally spreading the squad edits by gap.
func (w *world) transfer(p, a, b int, ts, gap action.Time) {
	w.store.AddActions(
		action.Action{Op: action.Add, Edge: action.Edge{Src: w.players[p], Label: "current_club", Dst: w.clubs[b]}, T: ts},
		action.Action{Op: action.Remove, Edge: action.Edge{Src: w.players[p], Label: "current_club", Dst: w.clubs[a]}, T: ts + 1},
		action.Action{Op: action.Add, Edge: action.Edge{Src: w.clubs[b], Label: "squad", Dst: w.players[p]}, T: ts + gap},
		action.Action{Op: action.Remove, Edge: action.Edge{Src: w.clubs[a], Label: "squad", Dst: w.players[p]}, T: ts + gap + 1},
	)
}

func transferPattern() pattern.Pattern {
	return pattern.Pattern{
		Vars: []taxonomy.Type{"FootballPlayer", "FootballClub", "FootballClub"},
		Actions: []pattern.AbstractAction{
			{Op: action.Add, Src: 0, Label: "current_club", Dst: 1},
			{Op: action.Remove, Src: 0, Label: "current_club", Dst: 2},
			{Op: action.Add, Src: 1, Label: "squad", Dst: 0},
			{Op: action.Remove, Src: 2, Label: "squad", Dst: 0},
		},
	}
}

func testConfig() Config {
	c := Defaults()
	c.MinWindow = 2 * action.Week
	c.MaxWindow = 8 * action.Week
	c.InitialTau = 0.7
	c.Mining = mining.PM(0.7)
	c.Mining.MaxAbstraction = 0
	return c
}

func (w *world) findDiscovered(o *Outcome, p pattern.Pattern) (DiscoveredPattern, bool) {
	key := p.Canonical()
	for _, d := range o.Discovered {
		if d.Pattern.Canonical() == key {
			return d, true
		}
	}
	return DiscoveredPattern{}, false
}

func TestRunFindsBurstWindowPattern(t *testing.T) {
	w := newWorld(t, 10)
	// 8 of 10 players transfer inside the second two-week window.
	for i := 0; i < 8; i++ {
		w.transferP(i, 2*action.Week+action.Time(i)*action.Day, 2)
	}
	o, err := Run(w.store, w.players, "FootballPlayer", w.span, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	d, ok := w.findDiscovered(o, transferPattern())
	if !ok {
		t.Fatalf("transfer pattern not discovered; got %d patterns", len(o.Discovered))
	}
	if d.Frequency != 0.8 {
		t.Errorf("frequency = %.2f, want 0.8", d.Frequency)
	}
	if !d.Window.Contains(2*action.Week) && d.Window.Start < 2*action.Week {
		t.Errorf("discovered window %v should cover the burst", d.Window)
	}
	if o.Elapsed <= 0 {
		t.Error("Elapsed not recorded")
	}
	if o.Stats.NodesProcessed == 0 {
		t.Error("stats not aggregated")
	}
}

func TestRunRefinementWidensForStraddlingEdits(t *testing.T) {
	w := newWorld(t, 10)
	// Squad edits land ~2 weeks after the player edits, so realizations
	// straddle a two-week boundary and complete only at a 4-week window.
	for i := 0; i < 8; i++ {
		w.transferP(i, 2*action.Week-4, 2*action.Week/2+action.Time(i))
	}
	o, err := Run(w.store, w.players, "FootballPlayer", w.span, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	d, ok := w.findDiscovered(o, transferPattern())
	if !ok {
		t.Fatalf("straddling pattern not discovered after widening; steps=%d width=%v",
			o.RefinementSteps, o.Width)
	}
	if d.Width <= 2*action.Week {
		t.Errorf("pattern should need a widened window, found at %v", d.Width)
	}
	if o.RefinementSteps == 0 {
		t.Error("refinement should have stepped")
	}
}

func TestRunRefinementCutsThresholdForRarePattern(t *testing.T) {
	w := newWorld(t, 10)
	// Only 5 of 10 players transfer: support 0.5 < 0.7 but above
	// 0.7*0.8^2 ≈ 0.45 after two threshold cuts.
	for i := 0; i < 5; i++ {
		w.transferP(i, action.Week+action.Time(i)*action.Hour, 2)
	}
	cfg := testConfig()
	o, err := Run(w.store, w.players, "FootballPlayer", w.span, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, ok := w.findDiscovered(o, transferPattern())
	if !ok {
		t.Fatalf("rare pattern not discovered; final tau %.3f, %d discovered",
			o.Tau, len(o.Discovered))
	}
	if d.Tau >= 0.7 {
		t.Errorf("pattern found at tau %.3f, expected only after cuts", d.Tau)
	}
}

// TestRunJoinWorkersForwarded checks that Mining.JoinWorkers reaches the
// per-window miners and leaves the mined model bytes unchanged.
func TestRunJoinWorkersForwarded(t *testing.T) {
	w := newWorld(t, 8)
	for i := 0; i < 6; i++ {
		w.transferP(i, action.Week+action.Time(i)*action.Hour, 2)
	}
	modelFor := func(joinWorkers int) []byte {
		t.Helper()
		reg := obs.NewRegistry()
		cfg := testConfig()
		cfg.Mining.JoinWorkers = joinWorkers
		cfg.Obs = reg
		o, err := Run(w.store, w.players, "FootballPlayer", w.span, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := reg.Gauge(obs.MiningJoinWorkers).Value(); got != float64(joinWorkers) {
			t.Fatalf("miners ran %v join workers, want %d", got, joinWorkers)
		}
		return modelBytes(t, o)
	}
	serial := modelFor(1)
	for _, jw := range []int{3, 4} {
		if !bytes.Equal(modelFor(jw), serial) {
			t.Fatalf("JoinWorkers %d: model bytes differ from JoinWorkers 1", jw)
		}
	}
}

// newRelativeWorld builds a world in which 8 of 10 players transfer and
// half of the movers also change league, with a config whose relative
// stage finds the league change relative to the transfer.
func newRelativeWorld(t *testing.T) (*world, Config) {
	t.Helper()
	w := newWorld(t, 10)
	leagueA := w.reg.MustAdd("L1", "Organisation")
	leagueB := w.reg.MustAdd("L2", "Organisation")
	for i := 0; i < 8; i++ {
		w.transferP(i, action.Week+action.Time(i)*action.Hour, 2)
	}
	// Half the movers also change league.
	for i := 0; i < 4; i++ {
		w.store.AddActions(
			action.Action{Op: action.Remove, Edge: action.Edge{Src: w.players[i], Label: "in_league", Dst: leagueA}, T: action.Week + 10},
			action.Action{Op: action.Add, Edge: action.Edge{Src: w.players[i], Label: "in_league", Dst: leagueB}, T: action.Week + 11},
		)
	}
	cfg := testConfig()
	cfg.Mining.MaxActions = 6
	cfg.Mining.TauRel = 0.5
	// Stop the walk right after the base pattern is found, so the relative
	// stage runs against the 4-action transfer base rather than against
	// deeper league-extended patterns discovered at lower thresholds.
	cfg.Patience = 1
	cfg.MinTau = 0.69
	return w, cfg
}

// TestRunParallelWorkersAgree checks that the size of the join-worker pool
// changes neither the discovered patterns nor the per-window relative
// patterns. The relative patterns are not part of the model, so the
// model-bytes checks do not cover the relative stage's pool.
func TestRunParallelWorkersAgree(t *testing.T) {
	render := func(joinWorkers int) string {
		t.Helper()
		w, cfg := newRelativeWorld(t)
		cfg.Mining.JoinWorkers = joinWorkers
		o, err := Run(w.store, w.players, "FootballPlayer", w.span, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, d := range o.Discovered {
			fmt.Fprintf(&b, "discovered %s\n", d)
		}
		for _, wr := range o.Windows {
			bases := make([]string, 0, len(wr.Relative))
			for k := range wr.Relative {
				bases = append(bases, k)
			}
			sort.Strings(bases)
			for _, k := range bases {
				for _, rp := range wr.Relative[k] {
					fmt.Fprintf(&b, "window %v: %s\n", wr.Window, rp)
				}
			}
		}
		return b.String()
	}
	serial := render(1)
	if !strings.Contains(serial, "in_league") {
		t.Fatalf("fixture found no relative league pattern:\n%s", serial)
	}
	if got := render(4); got != serial {
		t.Fatalf("JoinWorkers 4 disagrees with JoinWorkers 1:\n%s\nvs\n%s", got, serial)
	}
}

func TestRunRelativeStage(t *testing.T) {
	w, cfg := newRelativeWorld(t)
	o, err := Run(w.store, w.players, "FootballPlayer", w.span, cfg)
	if err != nil {
		t.Fatal(err)
	}
	foundRel := false
	for _, wr := range o.Windows {
		for _, rels := range wr.Relative {
			for _, rp := range rels {
				for _, a := range rp.Pattern.Actions {
					if a.Label == "in_league" {
						foundRel = true
					}
				}
			}
		}
	}
	if !foundRel {
		t.Fatal("relative league pattern not found in any window")
	}
}

func TestRunSkipRelative(t *testing.T) {
	w := newWorld(t, 6)
	for i := 0; i < 5; i++ {
		w.transferP(i, action.Week, 2)
	}
	cfg := testConfig()
	cfg.SkipRelative = true
	o, err := Run(w.store, w.players, "FootballPlayer", w.span, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, wr := range o.Windows {
		if wr.Relative != nil {
			t.Fatal("relative stage should be skipped")
		}
	}
}

func TestRunValidation(t *testing.T) {
	w := newWorld(t, 4)
	bad := testConfig()
	bad.MinWindow = 0
	if _, err := Run(w.store, w.players, "FootballPlayer", w.span, bad); err == nil {
		t.Error("MinWindow 0 should error")
	}
	bad = testConfig()
	bad.MaxWindow = action.Week
	if _, err := Run(w.store, w.players, "FootballPlayer", w.span, bad); err == nil {
		t.Error("MaxWindow < MinWindow should error")
	}
	bad = testConfig()
	bad.InitialTau = 1.5
	if _, err := Run(w.store, w.players, "FootballPlayer", w.span, bad); err == nil {
		t.Error("InitialTau > 1 should error")
	}
	bad = testConfig()
	bad.MinTau = 0.9
	if _, err := Run(w.store, w.players, "FootballPlayer", w.span, bad); err == nil {
		t.Error("MinTau > InitialTau should error")
	}
	bad = testConfig()
	bad.WindowFactor = 0.5
	if _, err := Run(w.store, w.players, "FootballPlayer", w.span, bad); err == nil {
		t.Error("WindowFactor < 1 should error")
	}
	bad = testConfig()
	bad.TauCut = 1
	if _, err := Run(w.store, w.players, "FootballPlayer", w.span, bad); err == nil {
		t.Error("TauCut 1 should error")
	}
	bad = testConfig()
	bad.Mining.Tau = -1
	if _, err := Run(w.store, w.players, "FootballPlayer", w.span, bad); err == nil {
		t.Error("invalid mining config should error")
	}
}

func TestRunEmptyHistoryTerminates(t *testing.T) {
	w := newWorld(t, 4)
	cfg := testConfig()
	cfg.MaxSteps = 5
	o, err := Run(w.store, w.players, "FootballPlayer", w.span, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Discovered) != 0 {
		t.Fatalf("no edits but %d patterns", len(o.Discovered))
	}
	// Refinement must have walked the whole schedule and stopped.
	if o.RefinementSteps == 0 {
		t.Error("expected refinement attempts on empty data")
	}
}

func TestNextSettingBoundsAndAlternation(t *testing.T) {
	cfg := testConfig()
	span := action.Window{Start: 0, End: 52 * action.Week}
	cfg.MaxWindow = 8 * action.Week
	widen := true

	// First move widens.
	w1, t1, ok := nextSetting(2*action.Week, 0.7, &widen, cfg, span)
	if !ok || w1 != 4*action.Week || t1 != 0.7 {
		t.Fatalf("step1 = %v %v %v", w1, t1, ok)
	}
	// Second cuts.
	w2, t2, ok := nextSetting(w1, t1, &widen, cfg, span)
	if !ok || w2 != 4*action.Week || t2 < 0.55 || t2 > 0.57 {
		t.Fatalf("step2 = %v %v %v", w2, t2, ok)
	}
	// Widening beyond MaxWindow falls through to cutting.
	widen = true
	w3, t3, ok := nextSetting(8*action.Week, 0.7, &widen, cfg, span)
	if !ok || w3 != 8*action.Week || t3 >= 0.7 {
		t.Fatalf("bounded widen = %v %v %v", w3, t3, ok)
	}
	// Both exhausted: width at bound, tau at floor.
	widen = true
	if _, _, ok := nextSetting(8*action.Week, cfg.MinTau, &widen, cfg, span); ok {
		t.Fatal("exhausted refinement should report false")
	}
}

func TestDiscoveredPatternString(t *testing.T) {
	d := DiscoveredPattern{
		Pattern:   transferPattern(),
		Frequency: 0.8,
		Window:    action.Window{Start: 0, End: action.Week},
		Width:     action.Week,
		Tau:       0.7,
	}
	if d.String() == "" {
		t.Error("String should render")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Defaults()
	if err := c.Validate(); err != nil {
		t.Fatalf("Defaults invalid: %v", err)
	}
	if c.MinWindow != 2*action.Week || c.MaxWindow != action.Year {
		t.Error("defaults should match the paper")
	}
	if c.WindowFactor != 2.0 || c.TauCut != 0.20 {
		t.Error("refinement policy defaults should match the paper")
	}
}
