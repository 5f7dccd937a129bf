package mining

import (
	"context"
	"testing"

	"wiclean/internal/action"
	"wiclean/internal/dump"
	"wiclean/internal/obs"
	"wiclean/internal/pattern"
	"wiclean/internal/relational"
	"wiclean/internal/taxonomy"
)

// fixture builds a small soccer world with a transfer window: players move
// between clubs with the full four-edit pattern, some also switch leagues,
// and unrelated cinema entities edit in the same window as noise.
type fixture struct {
	reg     *taxonomy.Registry
	store   *dump.History
	seeds   []taxonomy.EntityID
	players []taxonomy.EntityID
	clubs   []taxonomy.EntityID
	leagues []taxonomy.EntityID
	window  action.Window
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	x := taxonomy.New()
	x.AddChain("Agent", "Person", "Athlete", "FootballPlayer")
	x.AddChain("Agent", "Organisation", "SportsTeam", "FootballClub")
	x.AddChain("Agent", "Organisation", "SportsLeague")
	x.AddChain("Work", "Film")
	x.AddChain("Agent", "Person", "Artist", "Actor")
	reg := taxonomy.NewRegistry(x)

	f := &fixture{reg: reg, store: dump.NewHistory(reg), window: action.Window{Start: 0, End: 1000}}
	names := []string{"P1", "P2", "P3", "P4", "P5"}
	for _, n := range names {
		f.players = append(f.players, reg.MustAdd(n, "FootballPlayer"))
	}
	for _, n := range []string{"C1", "C2", "C3", "C4"} {
		f.clubs = append(f.clubs, reg.MustAdd(n, "FootballClub"))
	}
	for _, n := range []string{"L1", "L2"} {
		f.leagues = append(f.leagues, reg.MustAdd(n, "SportsLeague"))
	}
	f.seeds = f.players

	// Four of five players transfer with the full reciprocal pattern:
	// player i moves clubs[i%2*2] -> clubs[i%2*2+1] style pairs.
	moves := []struct{ p, from, to int }{
		{0, 0, 1},
		{1, 2, 3},
		{2, 0, 2},
		{3, 1, 3},
	}
	tbase := action.Time(10)
	for i, mv := range moves {
		p, from, to := f.players[mv.p], f.clubs[mv.from], f.clubs[mv.to]
		ts := tbase + action.Time(i*7)
		f.store.AddActions(
			action.Action{Op: action.Remove, Edge: action.Edge{Src: p, Label: "current_club", Dst: from}, T: ts},
			action.Action{Op: action.Add, Edge: action.Edge{Src: p, Label: "current_club", Dst: to}, T: ts + 1},
			action.Action{Op: action.Add, Edge: action.Edge{Src: to, Label: "squad", Dst: p}, T: ts + 2},
			action.Action{Op: action.Remove, Edge: action.Edge{Src: from, Label: "squad", Dst: p}, T: ts + 3},
		)
	}
	// Two of the movers also switch leagues.
	for _, pi := range []int{0, 1} {
		p := f.players[pi]
		f.store.AddActions(
			action.Action{Op: action.Remove, Edge: action.Edge{Src: p, Label: "in_league", Dst: f.leagues[0]}, T: 50},
			action.Action{Op: action.Add, Edge: action.Edge{Src: p, Label: "in_league", Dst: f.leagues[1]}, T: 51},
		)
	}
	// P5 posts a rumor that is reverted: reduction should erase it.
	f.store.AddActions(
		action.Action{Op: action.Add, Edge: action.Edge{Src: f.players[4], Label: "current_club", Dst: f.clubs[0]}, T: 60},
		action.Action{Op: action.Remove, Edge: action.Edge{Src: f.players[4], Label: "current_club", Dst: f.clubs[0]}, T: 61},
	)
	// Unrelated cinema noise edited in the same window.
	film := reg.MustAdd("Film1", "Film")
	actor := reg.MustAdd("Actor1", "Actor")
	f.store.AddActions(
		action.Action{Op: action.Add, Edge: action.Edge{Src: film, Label: "starring", Dst: actor}, T: 30},
		action.Action{Op: action.Add, Edge: action.Edge{Src: actor, Label: "notable_work", Dst: film}, T: 31},
	)
	return f
}

// transferPattern4 is the expected most specific frequent pattern.
func transferPattern4() pattern.Pattern {
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

func basicConfig() Config {
	c := PM(0.7)
	c.MaxAbstraction = 0
	return c
}

func TestMineFindsTransferPattern(t *testing.T) {
	f := newFixture(t)
	res, err := Mine(f.store, f.seeds, "FootballPlayer", f.window, basicConfig())
	if err != nil {
		t.Fatal(err)
	}
	sp, ok := res.Find(transferPattern4())
	if !ok {
		t.Fatalf("transfer pattern not mined; frequent:\n%s", res.Format())
	}
	if sp.SourceCount != 4 || sp.Frequency != 0.8 {
		t.Fatalf("transfer pattern score = %d sources, freq %.2f", sp.SourceCount, sp.Frequency)
	}
	// It must survive most-specific selection.
	found := false
	for _, p := range res.Patterns {
		if p.Pattern.Equal(transferPattern4()) {
			found = true
		}
	}
	if !found {
		t.Fatalf("transfer pattern not among most specific:\n%s", res.Format())
	}
}

func TestMineMostSpecificAreMutuallyIncomparable(t *testing.T) {
	f := newFixture(t)
	res, err := Mine(f.store, f.seeds, "FootballPlayer", f.window, basicConfig())
	if err != nil {
		t.Fatal(err)
	}
	tax := f.reg.Taxonomy()
	for i, a := range res.Patterns {
		for j, b := range res.Patterns {
			if i != j && pattern.StrictlyMoreSpecific(a.Pattern, b.Pattern, tax) {
				t.Fatalf("pattern %v dominated by %v in most-specific set", b.Pattern, a.Pattern)
			}
		}
	}
}

func TestMineRealizationTablesMatchCounts(t *testing.T) {
	f := newFixture(t)
	res, err := Mine(f.store, f.seeds, "FootballPlayer", f.window, basicConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range res.AllFrequent {
		col := sp.Realizations.ColumnIndex(pattern.VarName(pattern.SourceVar))
		if col < 0 {
			t.Fatalf("realization table of %v missing source column: %v",
				sp.Pattern, sp.Realizations.Columns())
		}
		n := 0
		for _, v := range sp.Realizations.DistinctValues(col) {
			id := taxonomy.EntityID(v)
			for _, s := range f.seeds {
				if s == id {
					n++
					break
				}
			}
		}
		if n != sp.SourceCount {
			t.Errorf("pattern %v: SourceCount %d but table has %d seed sources",
				sp.Pattern, sp.SourceCount, n)
		}
	}
}

func TestMineRealizationsAssignDistinctEntities(t *testing.T) {
	f := newFixture(t)
	res, err := Mine(f.store, f.seeds, "FootballPlayer", f.window, basicConfig())
	if err != nil {
		t.Fatal(err)
	}
	tax := f.reg.Taxonomy()
	for _, sp := range res.AllFrequent {
		tbl := sp.Realizations
		for _, row := range tbl.Rows() {
			for i := 0; i < len(row); i++ {
				for j := i + 1; j < len(row); j++ {
					if row[i] == row[j] &&
						tax.Comparable(sp.Pattern.Vars[i], sp.Pattern.Vars[j]) {
						t.Fatalf("pattern %v realization %v assigns one entity to two variables",
							sp.Pattern, row)
					}
				}
			}
		}
	}
}

func TestMineVariantsAgreeOnPatterns(t *testing.T) {
	f := newFixture(t)
	configs := []Config{basicConfig()}
	nj := basicConfig()
	nj.Strategy = relational.NestedLoop
	configs = append(configs, nj)
	ni := basicConfig()
	ni.Incremental = false
	configs = append(configs, ni)
	both := basicConfig()
	both.Incremental = false
	both.Strategy = relational.NestedLoop
	configs = append(configs, both)

	var keys []map[string]bool
	for _, cfg := range configs {
		res, err := Mine(f.store, f.seeds, "FootballPlayer", f.window, cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name(), err)
		}
		ks := map[string]bool{}
		for _, sp := range res.Patterns {
			ks[sp.Pattern.Canonical()] = true
		}
		keys = append(keys, ks)
	}
	for i := 1; i < len(keys); i++ {
		if len(keys[i]) != len(keys[0]) {
			t.Fatalf("variant %s found %d most-specific patterns, %s found %d",
				configs[i].Name(), len(keys[i]), configs[0].Name(), len(keys[0]))
		}
		for k := range keys[0] {
			if !keys[i][k] {
				t.Fatalf("variant %s missing pattern %s", configs[i].Name(), k)
			}
		}
	}
}

func TestIncrementalConsidersFewerCandidates(t *testing.T) {
	// The §6.2 small-data experiment: the incremental variants never pull
	// the cinema noise, so they evaluate fewer candidates than the
	// full-graph variants.
	f := newFixture(t)
	inc, err := Mine(f.store, f.seeds, "FootballPlayer", f.window, basicConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := basicConfig()
	cfg.Incremental = false
	full, err := Mine(f.store, f.seeds, "FootballPlayer", f.window, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Stats.Candidates >= full.Stats.Candidates {
		t.Fatalf("incremental candidates %d !< full %d",
			inc.Stats.Candidates, full.Stats.Candidates)
	}
	if inc.Stats.NodesProcessed >= full.Stats.NodesProcessed {
		t.Fatalf("incremental nodes %d !< full %d",
			inc.Stats.NodesProcessed, full.Stats.NodesProcessed)
	}
}

func TestMineRespectsThreshold(t *testing.T) {
	f := newFixture(t)
	cfg := basicConfig()
	cfg.Tau = 0.9 // above the 0.8 transfer support
	res, err := Mine(f.store, f.seeds, "FootballPlayer", f.window, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Find(transferPattern4()); ok {
		t.Fatal("transfer pattern should be below a 0.9 threshold")
	}
	for _, sp := range res.AllFrequent {
		if sp.Frequency < 0.9 {
			t.Fatalf("pattern below threshold admitted: %v", sp)
		}
	}
}

func TestMineLowThresholdFindsLeaguePattern(t *testing.T) {
	f := newFixture(t)
	cfg := basicConfig()
	cfg.Tau = 0.3
	cfg.MaxActions = 6
	res, err := Mine(f.store, f.seeds, "FootballPlayer", f.window, cfg)
	if err != nil {
		t.Fatal(err)
	}
	league := pattern.Pattern{
		Vars: []taxonomy.Type{"FootballPlayer", "SportsLeague", "SportsLeague"},
		Actions: []pattern.AbstractAction{
			{Op: action.Add, Src: 0, Label: "in_league", Dst: 1},
			{Op: action.Remove, Src: 0, Label: "in_league", Dst: 2},
		},
	}
	sp, ok := res.Find(league)
	if !ok {
		t.Fatalf("league pattern not found at low threshold:\n%s", res.Format())
	}
	if sp.SourceCount != 2 {
		t.Fatalf("league pattern sources = %d, want 2", sp.SourceCount)
	}
}

func TestMineWithAbstractionFindsGeneralizedPatterns(t *testing.T) {
	f := newFixture(t)
	cfg := basicConfig()
	cfg.MaxAbstraction = 1
	res, err := Mine(f.store, f.seeds, "FootballPlayer", f.window, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The Athlete-level singleton must be frequent...
	gen := pattern.Singleton(action.Add, "Athlete", "current_club", "FootballClub")
	if _, ok := res.Find(gen); !ok {
		t.Fatalf("generalized singleton not frequent:\n%s", res.Format())
	}
	// ...but dominated by the specific one in the most-specific set.
	for _, sp := range res.Patterns {
		if sp.Pattern.Equal(gen) {
			t.Fatal("generalized singleton should not be most specific")
		}
	}
}

func TestMineInputValidation(t *testing.T) {
	f := newFixture(t)
	if _, err := Mine(f.store, nil, "FootballPlayer", f.window, basicConfig()); err == nil {
		t.Error("empty seeds should error")
	}
	if _, err := Mine(f.store, f.seeds, "Martian", f.window, basicConfig()); err == nil {
		t.Error("unknown type should error")
	}
	bad := basicConfig()
	bad.Tau = 0
	if _, err := Mine(f.store, f.seeds, "FootballPlayer", f.window, bad); err == nil {
		t.Error("zero tau should error")
	}
	bad = basicConfig()
	bad.Tau = 1.5
	if _, err := Mine(f.store, f.seeds, "FootballPlayer", f.window, bad); err == nil {
		t.Error("tau > 1 should error")
	}
	bad = basicConfig()
	bad.MaxActions = 0
	if _, err := Mine(f.store, f.seeds, "FootballPlayer", f.window, bad); err == nil {
		t.Error("MaxActions 0 should error")
	}
	bad = basicConfig()
	bad.TauRel = 2
	if _, err := Mine(f.store, f.seeds, "FootballPlayer", f.window, bad); err == nil {
		t.Error("TauRel > 1 should error")
	}
}

func TestMineEmptyWindow(t *testing.T) {
	f := newFixture(t)
	res, err := Mine(f.store, f.seeds, "FootballPlayer", action.Window{Start: 5000, End: 6000}, basicConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.AllFrequent) != 0 {
		t.Fatalf("no actions in window but %d patterns", len(res.AllFrequent))
	}
}

func TestMineReductionErasesRumors(t *testing.T) {
	f := newFixture(t)
	res, err := Mine(f.store, f.seeds, "FootballPlayer", f.window, basicConfig())
	if err != nil {
		t.Fatal(err)
	}
	// P5's add+revert must not contribute support anywhere.
	p5 := relational.Value(f.players[4])
	for _, sp := range res.AllFrequent {
		for _, row := range sp.Realizations.Rows() {
			for _, v := range row {
				if v == p5 {
					t.Fatalf("reverted rumor leaked into pattern %v", sp.Pattern)
				}
			}
		}
	}
	if res.Stats.ReducedActions >= res.Stats.ActionsProcessed {
		t.Fatal("reduction should have removed the rumor pair")
	}
}

func TestMineStatsPopulated(t *testing.T) {
	f := newFixture(t)
	res, err := Mine(f.store, f.seeds, "FootballPlayer", f.window, basicConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.Candidates == 0 || s.FrequentFound == 0 || s.NodesProcessed == 0 {
		t.Fatalf("stats not populated: %+v", s)
	}
	if s.Join.Joins == 0 {
		t.Fatal("join stats not recorded")
	}
	if s.TypeExpansions == 0 {
		t.Fatal("type expansion should have pulled FootballClub")
	}
}

func TestConfigNames(t *testing.T) {
	if PM(0.7).Name() != "PM" {
		t.Error("PM name")
	}
	if PMNoJoin(0.7).Name() != "PM-join" {
		t.Error("PM-join name")
	}
	if PMNoInc(0.7).Name() != "PM-inc" {
		t.Error("PM-inc name")
	}
	if PMNoIncNoJoin(0.7).Name() != "PM-inc,-join" {
		t.Error("PM-inc,-join name")
	}
}

func TestMineRelativeLeagueChange(t *testing.T) {
	f := newFixture(t)
	cfg := basicConfig()
	cfg.MaxActions = 6
	cfg.TauRel = 0.5
	res, err := Mine(f.store, f.seeds, "FootballPlayer", f.window, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rels, err := MineRelativeContext(context.Background(), f.store, res, cfg)
	if err != nil {
		t.Fatal(err)
	}
	baseKey := transferPattern4().Canonical()
	baseRels, ok := rels[baseKey]
	if !ok {
		t.Fatalf("no relative patterns for the transfer base; got %d bases", len(rels))
	}
	// Expect an extension adding league actions at relative frequency 0.5
	// (2 of the 4 movers changed leagues).
	foundLeague := false
	for _, rp := range baseRels {
		hasLeague := false
		for _, a := range rp.Pattern.Actions {
			if a.Label == "in_league" {
				hasLeague = true
			}
		}
		if hasLeague {
			foundLeague = true
			if rp.RelFreq != 0.5 {
				t.Errorf("league relative frequency = %.2f, want 0.5", rp.RelFreq)
			}
			if rp.SourceCount != 2 {
				t.Errorf("league relative sources = %d, want 2", rp.SourceCount)
			}
		}
	}
	if !foundLeague {
		t.Fatalf("league extension not among relative patterns: %v", baseRels)
	}
}

func TestMineRelativeThresholdExcludes(t *testing.T) {
	f := newFixture(t)
	cfg := basicConfig()
	cfg.MaxActions = 6
	cfg.TauRel = 0.9 // league change is only 0.5 relative
	res, err := Mine(f.store, f.seeds, "FootballPlayer", f.window, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rels, err := MineRelativeContext(context.Background(), f.store, res, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, rps := range rels {
		for _, rp := range rps {
			if rp.RelFreq < 0.9 {
				t.Fatalf("relative pattern below threshold: %v", rp)
			}
		}
	}
}

// TestExtendJoinAccounting checks that every extension join ends in
// exactly one of three outcomes — admitted, rejected below τ, or a
// realization-cache hit — whether the join worker or the serial merge
// decides it. MineRelativeContext seeds with the base patterns instead of
// admitting singletons, so its counters cover extension joins only.
func TestExtendJoinAccounting(t *testing.T) {
	f := newFixture(t)
	cfg := basicConfig()
	cfg.MaxActions = 6
	cfg.TauRel = 0.5
	res, err := Mine(f.store, f.seeds, "FootballPlayer", f.window, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg.Obs = reg
	if _, err := MineRelativeContext(context.Background(), f.store, res, cfg); err != nil {
		t.Fatal(err)
	}
	admitted := reg.Counter(obs.MiningPatternsAdmitted).Value()
	rejected := reg.Counter(obs.MiningPatternsRejected).Value()
	hits := reg.Counter(obs.MiningCacheHits).Value()
	joins := reg.Counter(obs.MiningExtendJoins).Value()
	if admitted == 0 || rejected == 0 || hits == 0 {
		t.Fatalf("fixture should exercise every outcome: admitted %d, rejected %d, cache hits %d", admitted, rejected, hits)
	}
	if admitted+rejected+hits != joins {
		t.Fatalf("admitted %d + rejected %d + cache hits %d != extend joins %d", admitted, rejected, hits, joins)
	}
}

func TestScoredPatternAndRelativeString(t *testing.T) {
	sp := ScoredPattern{Pattern: transferPattern4(), Frequency: 0.8}
	if sp.String() == "" {
		t.Error("ScoredPattern.String")
	}
	rp := RelativePattern{Base: transferPattern4(), Pattern: transferPattern4(), RelFreq: 0.5}
	if rp.String() == "" {
		t.Error("RelativePattern.String")
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Candidates: 1, FrequentFound: 2, NodesProcessed: 3, ActionsProcessed: 4, ReducedActions: 5, TypeExpansions: 6}
	a.Add(Stats{Candidates: 10, FrequentFound: 20, NodesProcessed: 30, ActionsProcessed: 40, ReducedActions: 50, TypeExpansions: 60})
	if a.Candidates != 11 || a.FrequentFound != 22 || a.NodesProcessed != 33 ||
		a.ActionsProcessed != 44 || a.ReducedActions != 55 || a.TypeExpansions != 66 {
		t.Fatalf("Stats.Add = %+v", a)
	}
}
