package core

import (
	"testing"

	"wiclean/internal/action"
	"wiclean/internal/dump"
	"wiclean/internal/mining"
	"wiclean/internal/taxonomy"
	"wiclean/internal/windows"
)

// fixture builds a compact two-season transfer world by hand.
func fixture(t *testing.T) (*dump.History, []taxonomy.EntityID, action.Window) {
	t.Helper()
	tax := taxonomy.New()
	tax.AddChain("Person", "Athlete", "FootballPlayer")
	tax.AddChain("Organisation", "FootballClub")
	reg := taxonomy.NewRegistry(tax)
	var players, clubs []taxonomy.EntityID
	for i := 0; i < 10; i++ {
		players = append(players, reg.MustAdd("P"+string(rune('A'+i)), "FootballPlayer"))
	}
	for i := 0; i < 20; i++ {
		clubs = append(clubs, reg.MustAdd("C"+string(rune('A'+i)), "FootballClub"))
	}
	h := dump.NewHistory(reg)
	span := action.Window{Start: 0, End: 2 * action.Year}
	for _, year := range []action.Time{0, action.Year} {
		for i := 0; i < 8; i++ {
			base := year + 4*action.Week + action.Time(i)*action.Hour
			h.AddActions(
				action.Action{Op: action.Add, Edge: action.Edge{Src: players[i], Label: "current_club", Dst: clubs[2*i]}, T: base},
				action.Action{Op: action.Add, Edge: action.Edge{Src: clubs[2*i], Label: "squad", Dst: players[i]}, T: base + 1},
			)
		}
	}
	// One partial edit in season one: PI joins CI' without reciprocation.
	h.AddActions(action.Action{
		Op: action.Add, Edge: action.Edge{Src: players[8], Label: "current_club", Dst: clubs[17]}, T: 4*action.Week + 100,
	})
	return h, players, span
}

func testConfig() windows.Config {
	cfg := windows.Defaults()
	cfg.Mining = mining.PM(cfg.InitialTau)
	cfg.Mining.MaxAbstraction = 0
	cfg.SkipRelative = true
	return cfg
}

func TestSystemMineDetectAssist(t *testing.T) {
	h, players, span := fixture(t)
	sys := New(h, testConfig())
	if sys.Store() != h {
		t.Error("Store accessor")
	}
	o, err := sys.Mine(players, "FootballPlayer", span)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Discovered) == 0 {
		t.Fatal("no patterns")
	}
	if sys.Outcome() != o {
		t.Error("Outcome should cache the result")
	}
	reports, err := sys.DetectErrors(1)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, rep := range reports {
		for _, pe := range rep.Partials {
			if sys.Registry().Name(pe.Subject()) == "PI" {
				found = true
			}
		}
	}
	if !found {
		t.Error("the injected partial edit was not flagged")
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
		t.Errorf("assistant silent on a pattern-matching edit (err %v)", err)
	}
}

func TestSystemPeriodicPatterns(t *testing.T) {
	h, players, span := fixture(t)
	sys := New(h, testConfig())
	if _, err := sys.Mine(players, "FootballPlayer", span); err != nil {
		t.Fatal(err)
	}
	ps, err := sys.PeriodicPatterns(0.35)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) == 0 {
		t.Fatal("two-season pattern should be periodic")
	}
	if ps[0].Period < action.Year/2 || ps[0].Period > 2*action.Year {
		t.Errorf("period = %d days", ps[0].Period/action.Day)
	}
}

func TestSystemDetectSinglePattern(t *testing.T) {
	h, players, span := fixture(t)
	sys := New(h, testConfig())
	o, err := sys.Mine(players, "FootballPlayer", span)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.DetectPattern(o.Discovered[0].Pattern, action.Window{Start: 0, End: 8 * action.Week})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FullCount == 0 {
		t.Error("first-season realizations missing")
	}
}

func TestMineTypeAndSeedEntity(t *testing.T) {
	h, _, span := fixture(t)
	sys := New(h, testConfig())
	if _, err := sys.MineType("FootballPlayer", span); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.MineType("Martian", span); err == nil {
		t.Error("unknown type should error")
	}
	if _, err := sys.MineSeedEntity("PA", span); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.MineSeedEntity("Nobody", span); err == nil {
		t.Error("unknown entity should error")
	}
}

func TestSystemGuards(t *testing.T) {
	h, _, _ := fixture(t)
	sys := New(h, testConfig())
	if _, err := sys.DetectErrors(1); err == nil {
		t.Error("DetectErrors before Mine must error")
	}
	if _, err := sys.Assistant(); err == nil {
		t.Error("Assistant before Mine must error")
	}
	if _, err := sys.PeriodicPatterns(0.3); err == nil {
		t.Error("PeriodicPatterns before Mine must error")
	}
}
