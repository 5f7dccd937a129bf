package wiclean

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestEndToEndPipeline drives the whole public API: generate a world, mine
// patterns, detect errors, ask the assistant, find periodic patterns.
func TestEndToEndPipeline(t *testing.T) {
	world, err := GenerateWorld(USPoliticians(), 120, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	sys := NewSystem(world.History, cfg)

	// Mine over the world's seed sample (the full entities(t) population
	// also contains the inactive former-senator pool, which dilutes
	// frequencies — exactly why the paper samples recently edited seeds).
	outcome, err := sys.Mine(world.Seeds, "Senator", world.Span)
	if err != nil {
		t.Fatal(err)
	}
	if len(outcome.Discovered) == 0 {
		t.Fatal("no patterns discovered")
	}
	// The committee-assignment pattern must be among the discoveries.
	foundCommittee := false
	for _, d := range outcome.Discovered {
		for _, a := range d.Pattern.Actions {
			if a.Label == "member_of" {
				foundCommittee = true
			}
		}
	}
	if !foundCommittee {
		t.Errorf("committee pattern not discovered among %d", len(outcome.Discovered))
	}

	reports, err := sys.DetectErrors(1)
	if err != nil {
		t.Fatal(err)
	}
	partials := 0
	for _, r := range reports {
		partials += len(r.Partials)
	}
	if partials == 0 {
		t.Error("no potential errors signaled despite injected ones")
	}

	as, err := sys.Assistant()
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a live edit matching a discovered pattern's first action.
	var live Action
	var liveFound bool
	for _, d := range outcome.Discovered {
		a := d.Pattern.Actions[0]
		// Find concrete entities of the right types.
		srcs := world.Reg.EntitiesOf(d.Pattern.Vars[a.Src])
		dsts := world.Reg.EntitiesOf(d.Pattern.Vars[a.Dst])
		if len(srcs) > 0 && len(dsts) > 0 {
			live = Action{Op: a.Op, Edge: Edge{Src: srcs[0], Label: a.Label, Dst: dsts[0]}, T: world.Span.Start + Week}
			liveFound = true
			break
		}
	}
	if !liveFound {
		t.Fatal("could not build a live edit")
	}
	advices, err := as.Suggest(live, live.T)
	if err != nil {
		t.Fatal(err)
	}
	if len(advices) == 0 {
		t.Error("assistant gave no advice for a pattern-matching edit")
	}
}

func TestMineSeedEntityResolvesType(t *testing.T) {
	world, err := GenerateWorld(USPoliticians(), 80, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.SkipRelative = true
	sys := NewSystem(world.History, cfg)
	name := world.Reg.Name(world.Seeds[0])
	if _, err := sys.MineSeedEntity(name, world.Span); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.MineSeedEntity("Nobody", world.Span); err == nil {
		t.Error("unknown entity should error")
	}
}

func TestSystemOrderingGuards(t *testing.T) {
	world, err := GenerateWorld(Soccer(), 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(world.History, DefaultConfig())
	if _, err := sys.DetectErrors(1); err == nil {
		t.Error("DetectErrors before Mine should error")
	}
	if _, err := sys.Assistant(); err == nil {
		t.Error("Assistant before Mine should error")
	}
	if _, err := sys.PeriodicPatterns(0.25); err == nil {
		t.Error("PeriodicPatterns before Mine should error")
	}
	if _, err := sys.MineType("Martian", world.Span); err == nil {
		t.Error("unknown type should error")
	}
}

func TestManualHistoryConstruction(t *testing.T) {
	// Build a tiny world by hand through the public API only.
	tax := NewTaxonomy()
	tax.AddChain("Person", "Athlete", "FootballPlayer")
	tax.AddChain("Organisation", "FootballClub")
	reg := NewRegistry(tax)
	var players, clubs []EntityID
	for i := 0; i < 10; i++ {
		players = append(players, reg.MustAdd("P"+string(rune('A'+i)), "FootballPlayer"))
		clubs = append(clubs, reg.MustAdd("C"+string(rune('A'+i)), "FootballClub"))
	}
	h := NewHistory(reg)
	for i := 0; i < 8; i++ {
		h.AddActions(
			Action{Op: Add, Edge: Edge{Src: players[i], Label: "current_club", Dst: clubs[i]}, T: Time(10 + i)},
			Action{Op: Add, Edge: Edge{Src: clubs[i], Label: "squad", Dst: players[i]}, T: Time(20 + i)},
		)
	}
	res, err := Mine(h, players, "FootballPlayer", Window{Start: 0, End: 100}, PM(0.7))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) == 0 {
		t.Fatal("no patterns mined")
	}
	if !strings.Contains(res.Patterns[0].Pattern.String(), "current_club") {
		t.Errorf("unexpected top pattern %v", res.Patterns[0])
	}

	// Detect a deliberately partial edit through the detector.
	h.AddActions(Action{Op: Add, Edge: Edge{Src: players[8], Label: "current_club", Dst: clubs[8]}, T: 50})
	rep, err := NewDetector(h).FindPartials(res.Patterns[0].Pattern, Window{Start: 0, End: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Partials) == 0 {
		t.Error("partial edit not flagged")
	}
}

func TestPeriodicPatternsOverTwoSeasons(t *testing.T) {
	// Two yearly transfer bursts: the pattern must be reported periodic.
	tax := NewTaxonomy()
	tax.AddChain("Person", "Athlete", "FootballPlayer")
	tax.AddChain("Organisation", "FootballClub")
	reg := NewRegistry(tax)
	var players, clubs []EntityID
	for i := 0; i < 10; i++ {
		players = append(players, reg.MustAdd("P"+string(rune('A'+i)), "FootballPlayer"))
		clubs = append(clubs, reg.MustAdd("C"+string(rune('A'+i)), "FootballClub"))
	}
	h := NewHistory(reg)
	span := Window{Start: 0, End: 2 * Year}
	for _, year := range []Time{0, Year} {
		for i := 0; i < 8; i++ {
			base := year + 4*Week + Time(i)*Hour
			h.AddActions(
				Action{Op: Add, Edge: Edge{Src: players[i], Label: "current_club", Dst: clubs[i]}, T: base},
				Action{Op: Add, Edge: Edge{Src: clubs[i], Label: "squad", Dst: players[i]}, T: base + 1},
			)
		}
	}
	cfg := DefaultConfig()
	cfg.SkipRelative = true
	cfg.Mining.MaxAbstraction = 0
	sys := NewSystem(h, cfg)
	if _, err := sys.Mine(players, "FootballPlayer", span); err != nil {
		t.Fatal(err)
	}
	periodic, err := sys.PeriodicPatterns(0.35)
	if err != nil {
		t.Fatal(err)
	}
	if len(periodic) == 0 {
		t.Fatal("yearly pattern not reported periodic")
	}
	p := periodic[0]
	if p.Period < Year-8*Week || p.Period > Year+8*Week {
		t.Errorf("period = %dd, want ~1 year", p.Period/Day)
	}
}

// TestPublicSurface exercises the remaining public wrappers: domains, the
// SQL database, model persistence through a model file, and constant
// specialization.
func TestPublicSurface(t *testing.T) {
	if _, err := DomainByName("cinematography"); err != nil {
		t.Fatal(err)
	}
	if _, err := DomainByName("curling"); err == nil {
		t.Fatal("unknown domain should error")
	}
	if Cinematography().SeedType != "Actor" || USPoliticians().SeedType != "Senator" {
		t.Fatal("domain seed types")
	}

	world, err := GenerateWorld(USPoliticians(), 80, 1)
	if err != nil {
		t.Fatal(err)
	}

	// SQL over the revision log.
	db := NewDatabase(world.History, world.Span)
	res, err := db.Query("SELECT COUNT(DISTINCT src) FROM reduced")
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Row(0)[0] <= 0 {
		t.Fatal("no sources in the log")
	}

	// Mine once, persist the model, reload it into a fresh system.
	cfg := DefaultConfig()
	cfg.SkipRelative = true
	sys := NewSystem(world.History, cfg)
	o, err := sys.Mine(world.Seeds, "Senator", world.Span)
	if err != nil {
		t.Fatal(err)
	}
	prov, err := Fingerprint(world.Reg, world.Span, cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := SaveModel(path, SnapshotModel(o, world.Reg, prov), nil); err != nil {
		t.Fatal(err)
	}
	f, err := LoadModel(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Verify(prov); err != nil {
		t.Fatal(err)
	}
	fresh := NewSystem(world.History, cfg)
	if err := fresh.UseOutcome(f.Outcome()); err != nil {
		t.Fatal(err)
	}
	reports, err := fresh.DetectErrors(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) == 0 {
		t.Fatal("model-driven detection produced no reports")
	}

	// Constant specialization runs over per-window results.
	for _, wr := range o.Windows {
		_ = SpecializeConstants(wr.Result, world.Reg, 0.8)
	}
}
