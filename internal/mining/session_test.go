package mining

import (
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"wiclean/internal/action"
	"wiclean/internal/dump"
	"wiclean/internal/obs"
	"wiclean/internal/pattern"
	"wiclean/internal/relational"
	"wiclean/internal/taxonomy"
)

// squadWorld is a squad in which a type pull appends other entities'
// rows to a template the seed extraction filled. Each of four clubs has a
// goalkeeper, and each goalkeeper and two players join that club; the
// seeds are the first k goalkeepers and 10−k players, and the first
// capped players join a national team. At τ 0.5 the player→club
// singleton pulls the clubs, whose keeper edges make the two-edge pattern
// P (player joins club c, c has keeper g) frequent. The next generation
// joins P with the goalkeeper→club template while it holds only the seed
// goalkeepers' rows; P then pulls every goalkeeper, which appends the
// other goalkeepers' rows. With k = 2 that extension, at 0.4, is rejected
// at τ 0.5 and clears 0.3; with k = 3 it is admitted at 0.6, and the
// goalkeeper singleton, at 0.3, clears τ 0.3 only, so a fresh run at 0.3
// pulls the goalkeepers before it joins P with them. With three capped
// players the national-team singleton clears τ 0.3 only, so a fresh run
// at 0.3 pulls the national teams with the clubs, and still joins P with
// the seed goalkeepers' rows alone.
func squadWorld(t *testing.T, k, capped int) (*dump.History, []taxonomy.EntityID, action.Window) {
	t.Helper()
	x := taxonomy.New()
	x.AddChain("Person", "FootballPlayer", "Goalkeeper")
	x.AddChain("Organisation", "FootballClub")
	x.AddChain("Organisation", "NationalTeam")
	reg := taxonomy.NewRegistry(x)
	store := dump.NewHistory(reg)
	var keepers, clubs, seeds []taxonomy.EntityID
	for i := 0; i < 4; i++ {
		keepers = append(keepers, reg.MustAdd(fmt.Sprintf("G%d", i), "Goalkeeper"))
		clubs = append(clubs, reg.MustAdd(fmt.Sprintf("C%d", i), "FootballClub"))
	}
	seeds = append(seeds, keepers[:k]...)
	for i := 0; i < 10-k; i++ {
		seeds = append(seeds, reg.MustAdd(fmt.Sprintf("P%d", i), "FootballPlayer"))
	}
	edge := func(src taxonomy.EntityID, label action.Label, dst taxonomy.EntityID, at int) {
		store.AddActions(action.Action{Op: action.Add, Edge: action.Edge{Src: src, Label: label, Dst: dst}, T: action.Time(at)})
	}
	for i, c := range clubs {
		edge(c, "keeper", keepers[i], 10+i)
		edge(keepers[i], "current_club", c, 20+i)
	}
	for i, p := range seeds[k:] {
		edge(p, "current_club", clubs[i/2], 30+i)
	}
	if capped > 0 {
		team := reg.MustAdd("N0", "NationalTeam")
		for i, p := range seeds[k : k+capped] {
			edge(p, "national_team", team, 50+i)
		}
	}
	return store, seeds, action.Window{Start: 0, End: 100}
}

// realizationRows renders a table's rows, sorted.
func realizationRows(tbl *relational.Table) []string {
	var rows []string
	for _, r := range tbl.Rows() {
		rows = append(rows, fmt.Sprint(r))
	}
	slices.Sort(rows)
	return rows
}

// requireSameFound fails unless two scored pattern lists hold the same
// stored patterns, frequencies, source counts and realization row sets.
func requireSameFound(t *testing.T, label string, got, want []ScoredPattern) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d patterns, fresh %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if !reflect.DeepEqual(g.Pattern, w.Pattern) || g.Frequency != w.Frequency || g.SourceCount != w.SourceCount ||
			!slices.Equal(realizationRows(g.Realizations), realizationRows(w.Realizations)) {
			t.Fatalf("%s[%d]: %s %v (%d sources) %v; fresh %s %v (%d) %v", label, i,
				g.Pattern, g.Frequency, g.SourceCount, realizationRows(g.Realizations),
				w.Pattern, w.Frequency, w.SourceCount, realizationRows(w.Realizations))
		}
	}
}

// TestSessionCutMatchesFresh continues a session from τ 0.5 to 0.3 over
// three squads and checks it finds what a fresh run at 0.3 finds,
// realization rows in their order included. With two seed goalkeepers
// the extension rejected at 0.5 is admitted at 0.3 with the two rows its
// template had when a fresh run joins it, not the four the pull left; so
// it is when the cut also pulls the national teams, which takes the
// session back to before the goalkeeper pull. With three seed
// goalkeepers, the cut pulls the goalkeepers before the extension is
// joined, so it is admitted with more sources than at 0.5, and the
// goalkeeper singleton is built from the seed extraction's three rows.
func TestSessionCutMatchesFresh(t *testing.T) {
	extended := pattern.Singleton(action.Add, "FootballPlayer", "current_club", "FootballClub").
		Extend(pattern.Template{Op: action.Add, SrcType: "FootballClub", Label: "keeper", DstType: "Goalkeeper"},
			pattern.Extension{SrcVar: 1, DstVar: 2, NewVar: true}).
		Extend(pattern.Template{Op: action.Add, SrcType: "Goalkeeper", Label: "current_club", DstType: "FootballClub"},
			pattern.Extension{SrcVar: 2, DstVar: 1})
	keeper := pattern.Singleton(action.Add, "Goalkeeper", "current_club", "FootballClub")
	for _, tc := range []struct {
		k, capped      int
		before, after  int // seed sources of the extension at τ 0.5 (0: rejected) and at 0.3
		keeperAtTheCut bool
	}{
		{k: 2, before: 0, after: 4},
		{k: 2, capped: 3, before: 0, after: 4},
		{k: 3, before: 6, after: 7, keeperAtTheCut: true},
	} {
		t.Run(fmt.Sprintf("%d seed goalkeepers, %d capped", tc.k, tc.capped), func(t *testing.T) {
			store, seeds, win := squadWorld(t, tc.k, tc.capped)
			cfg := PM(0.5)
			cfg.MaxAbstraction = 0
			s, err := NewSession(store, seeds, "FootballPlayer", win, cfg, 0.2)
			if err != nil {
				t.Fatal(err)
			}
			before, err := s.Mine(context.Background(), 0.5)
			if err != nil {
				t.Fatal(err)
			}
			carried, err := s.Mine(context.Background(), 0.3)
			if err != nil {
				t.Fatal(err)
			}
			fcfg := cfg
			fcfg.Tau = 0.3
			fresh, err := Mine(store, seeds, "FootballPlayer", win, fcfg)
			if err != nil {
				t.Fatal(err)
			}
			requireSameFound(t, "most specific", carried.Patterns, fresh.Patterns)
			requireSameFound(t, "all frequent", carried.AllFrequent, fresh.AllFrequent)
			if diff := rowOrderDiff(carried.AllFrequent, fresh.AllFrequent); diff != "" {
				t.Error(diff)
			}

			sources := func(r *Result, p pattern.Pattern) int {
				sp, ok := r.Find(p)
				if !ok {
					return 0
				}
				return sp.SourceCount
			}
			if got := sources(before, extended); got != tc.before {
				t.Fatalf("%s at τ 0.5: %d sources, the fixture needs %d", extended, got, tc.before)
			}
			if got := sources(carried, extended); got != tc.after {
				t.Errorf("%s after the cut: %d sources, want %d", extended, got, tc.after)
			}
			tmpl := s.m.templates[s.m.templateIdx[pattern.Template{Op: action.Add, SrcType: "Goalkeeper", Label: "current_club", DstType: "FootballClub"}]]
			if tmpl.tbl.Len() != 4 {
				t.Fatalf("goalkeeper template holds %d rows, want the 4 the pull left", tmpl.tbl.Len())
			}
			sp, ok := carried.Find(keeper)
			if ok != tc.keeperAtTheCut || ok && sp.Realizations.Len() != tc.k {
				t.Errorf("%s after the cut: found %v, want %v with the %d seed rows", keeper, ok, tc.keeperAtTheCut, tc.k)
			}
			c, f := carried.Stats, fresh.Stats
			if c.Candidates != f.Candidates || c.FrequentFound != f.FrequentFound || c.TypeExpansions != f.TypeExpansions {
				t.Errorf("carried call counts %d candidates, %d admissions, %d expansions; fresh %d, %d, %d",
					c.Candidates, c.FrequentFound, c.TypeExpansions, f.Candidates, f.FrequentFound, f.TypeExpansions)
			}
		})
	}
}

// rowOrderDiff reports the first pattern whose realization rows two
// results list in another order.
func rowOrderDiff(got, want []ScoredPattern) string {
	for i := range min(len(got), len(want)) {
		if !reflect.DeepEqual(got[i].Realizations.Rows(), want[i].Realizations.Rows()) {
			return fmt.Sprintf("%s: realization rows %v, fresh %v", got[i].Pattern, got[i].Realizations.Rows(), want[i].Realizations.Rows())
		}
	}
	return ""
}

// randomSquadWorld builds a small random world in which type pulls append
// rows to templates earlier epochs filled: the seeds are some of the
// players and goalkeepers, and the other players and goalkeepers, the
// clubs and the coaches edit with the same labels.
func randomSquadWorld(seed uint64) (*dump.History, []taxonomy.EntityID, action.Window) {
	rng := rand.New(rand.NewPCG(seed, 7))
	x := taxonomy.New()
	x.AddChain("Person", "FootballPlayer", "Goalkeeper")
	x.AddChain("Person", "Coach")
	x.AddChain("Organisation", "FootballClub")
	x.AddChain("Organisation", "NationalTeam")
	reg := taxonomy.NewRegistry(x)
	store := dump.NewHistory(reg)
	add := func(prefix string, typ taxonomy.Type, n int) []taxonomy.EntityID {
		var ids []taxonomy.EntityID
		for i := 0; i < n; i++ {
			ids = append(ids, reg.MustAdd(fmt.Sprintf("%s%d", prefix, i), typ))
		}
		return ids
	}
	players := add("P", "FootballPlayer", 6+rng.IntN(5))
	keepers := add("G", "Goalkeeper", 3+rng.IntN(4))
	coaches := add("K", "Coach", 2+rng.IntN(3))
	clubs := add("C", "FootballClub", 3+rng.IntN(3))
	teams := add("N", "NationalTeam", 2)
	people := append(slices.Clone(players), keepers...)
	var seeds []taxonomy.EntityID
	for _, p := range people {
		if rng.IntN(3) > 0 {
			seeds = append(seeds, p)
		}
	}
	if len(seeds) == 0 {
		seeds = players[:1]
	}
	rels := []struct {
		label    action.Label
		src, dst []taxonomy.EntityID
	}{
		{"current_club", people, clubs},
		{"national_team", people, teams},
		{"teammate", people, keepers},
		{"keeper", clubs, keepers},
		{"squad", clubs, people},
		{"coach", clubs, coaches},
		{"manages", coaches, clubs},
		{"current_club", coaches, clubs},
	}
	pick := func(ids []taxonomy.EntityID) taxonomy.EntityID { return ids[rng.IntN(len(ids))] }
	for n := 15 + rng.IntN(20); n > 0; n-- {
		r := rels[rng.IntN(len(rels))]
		op := action.Add
		if rng.IntN(4) == 0 {
			op = action.Remove
		}
		store.AddActions(action.Action{Op: op,
			Edge: action.Edge{Src: pick(r.src), Label: r.label, Dst: pick(r.dst)}, T: action.Time(1 + rng.IntN(90))})
	}
	return store, seeds, action.Window{Start: 0, End: 100}
}

// TestSessionCutsMatchFreshOnRandomWorlds continues one session per
// random world and abstraction level through five cuts (τ 0.7 down by
// 20% each) and checks every call against a fresh run at its τ: the same
// patterns, sources and realization rows in the same order, and the same
// candidate and admission counts. Worlds 133 and 137 are two where
// re-joining the rejected extensions against the templates as they stand
// after the call finds other patterns than a fresh run.
func TestSessionCutsMatchFreshOnRandomWorlds(t *testing.T) {
	taus := []float64{0.7, 0.56, 0.448, 0.3584, 0.28672}
	for world := uint64(100); world < 160; world++ {
		store, seeds, win := randomSquadWorld(world)
		for abstraction := 0; abstraction <= 2; abstraction++ {
			cfg := PM(taus[0])
			cfg.MaxAbstraction = abstraction
			cfg.MaxActions = 4
			s, err := NewSession(store, seeds, "FootballPlayer", win, cfg, 0.2)
			if err != nil {
				t.Fatal(err)
			}
			for _, tau := range taus {
				carried, err := s.Mine(context.Background(), tau)
				if err != nil {
					t.Fatal(err)
				}
				fcfg := cfg
				fcfg.Tau = tau
				fresh, err := Mine(store, seeds, "FootballPlayer", win, fcfg)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("world %d, abstraction %d, τ %v", world, abstraction, tau)
				requireSameFound(t, label, carried.AllFrequent, fresh.AllFrequent)
				if diff := rowOrderDiff(carried.AllFrequent, fresh.AllFrequent); diff != "" {
					t.Fatalf("%s: %s", label, diff)
				}
				if c, f := carried.Stats, fresh.Stats; c.Candidates != f.Candidates || c.FrequentFound != f.FrequentFound {
					t.Fatalf("%s: %d candidates and %d admissions, fresh %d and %d",
						label, c.Candidates, c.FrequentFound, f.Candidates, f.FrequentFound)
				}
			}
		}
	}
}

// TestSessionRejectsBadThresholds checks a session only goes down, and
// never below its floor.
func TestSessionRejectsBadThresholds(t *testing.T) {
	store, seeds, win := squadWorld(t, 3, 0)
	cfg := PM(0.5)
	s, err := NewSession(store, seeds, "FootballPlayer", win, cfg, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Mine(context.Background(), 0.2); err == nil {
		t.Error("a τ below the floor was accepted")
	}
	if _, err := s.Mine(context.Background(), 0.5); err != nil {
		t.Fatal(err)
	}
	for _, tau := range []float64{0.5, 0.6, 0} {
		if _, err := s.Mine(context.Background(), tau); err == nil {
			t.Errorf("τ %v after 0.5 was accepted", tau)
		}
	}
	if _, err := NewSession(store, nil, "FootballPlayer", win, cfg, 0.3); err == nil {
		t.Error("empty seed set accepted")
	}
}

// TestSessionPublishesJoinsPerCall checks that each call of a session
// adds the joins its Result counts to wiclean_mining_extend_joins_total,
// on the first call and on a continued cut, at one join worker and at
// four.
func TestSessionPublishesJoinsPerCall(t *testing.T) {
	store, seeds, win := squadWorld(t, 2, 3)
	for _, workers := range []int{1, 4} {
		reg := obs.NewRegistry()
		cfg := PM(0.5)
		cfg.MaxAbstraction = 0
		cfg.JoinWorkers = workers
		cfg.Obs = reg
		s, err := NewSession(store, seeds, "FootballPlayer", win, cfg, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		var joins int64
		for _, tau := range []float64{0.5, 0.3} {
			res, err := s.Mine(context.Background(), tau)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Join.Joins == 0 {
				t.Fatalf("%d workers, τ %v: the call made no join", workers, tau)
			}
			joins += int64(res.Stats.Join.Joins)
			if got := reg.Counter(obs.MiningExtendJoins).Value(); got != joins {
				t.Errorf("%d workers, τ %v: %s = %d, want the calls' %d joins", workers, tau, obs.MiningExtendJoins, got, joins)
			}
		}
	}
}
