package assist

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"wiclean/internal/action"
	"wiclean/internal/detect"
	"wiclean/internal/dump"
	"wiclean/internal/mining"
	"wiclean/internal/pattern"
	"wiclean/internal/source"
	"wiclean/internal/synth"
	"wiclean/internal/taxonomy"
)

func setup(t *testing.T) (*taxonomy.Registry, *dump.History, []taxonomy.EntityID, []taxonomy.EntityID) {
	t.Helper()
	x := taxonomy.New()
	x.AddChain("Person", "Athlete", "FootballPlayer")
	x.AddChain("Organisation", "FootballClub")
	reg := taxonomy.NewRegistry(x)
	var players, clubs []taxonomy.EntityID
	for _, n := range []string{"P1", "P2"} {
		players = append(players, reg.MustAdd(n, "FootballPlayer"))
	}
	for _, n := range []string{"C1", "C2"} {
		clubs = append(clubs, reg.MustAdd(n, "FootballClub"))
	}
	return reg, dump.NewHistory(reg), players, clubs
}

func reciprocal() pattern.Pattern {
	return pattern.Pattern{
		Vars: []taxonomy.Type{"FootballPlayer", "FootballClub"},
		Actions: []pattern.AbstractAction{
			{Op: action.Add, Src: 0, Label: "current_club", Dst: 1},
			{Op: action.Add, Src: 1, Label: "squad", Dst: 0},
		},
	}
}

func transfer3() pattern.Pattern {
	return pattern.Pattern{
		Vars: []taxonomy.Type{"FootballPlayer", "FootballClub", "FootballClub"},
		Actions: []pattern.AbstractAction{
			{Op: action.Add, Src: 0, Label: "current_club", Dst: 1},
			{Op: action.Remove, Src: 0, Label: "current_club", Dst: 2},
			{Op: action.Add, Src: 1, Label: "squad", Dst: 0},
		},
	}
}

func TestSuggestProposesMissingCompanion(t *testing.T) {
	reg, store, players, clubs := setup(t)
	as := NewAssistant(store, []KnownPattern{{Pattern: reciprocal(), Frequency: 0.8, Width: 100}})

	edit := action.Action{Op: action.Add, Edge: action.Edge{Src: players[0], Label: "current_club", Dst: clubs[0]}, T: 50}
	advices := mustSuggest(t, as, edit, 50)
	if len(advices) != 1 {
		t.Fatalf("advices = %d", len(advices))
	}
	adv := advices[0]
	if adv.Matched != 0 || len(adv.Missing) != 1 || len(adv.Done) != 0 {
		t.Fatalf("advice = %+v", adv)
	}
	s := adv.Missing[0]
	if s.Src != clubs[0] || s.Dst != players[0] || s.Label != "squad" {
		t.Fatalf("suggestion = %+v", s)
	}
	if !strings.Contains(adv.Format(reg), "suggest") {
		t.Error("Format should render suggestions")
	}
}

func TestSuggestRecognizesDoneCompanion(t *testing.T) {
	_, store, players, clubs := setup(t)
	// The club already reciprocated earlier in the window.
	store.AddActions(action.Action{
		Op: action.Add, Edge: action.Edge{Src: clubs[0], Label: "squad", Dst: players[0]}, T: 10,
	})
	as := NewAssistant(store, []KnownPattern{{Pattern: reciprocal(), Frequency: 0.8, Width: 100}})
	edit := action.Action{Op: action.Add, Edge: action.Edge{Src: players[0], Label: "current_club", Dst: clubs[0]}, T: 50}
	advices := mustSuggest(t, as, edit, 50)
	if len(advices) != 1 {
		t.Fatalf("advices = %d", len(advices))
	}
	adv := advices[0]
	if len(adv.Done) != 1 || len(adv.Missing) != 0 {
		t.Fatalf("advice = %+v", adv)
	}
}

func TestSuggestBindsVariablesTransitively(t *testing.T) {
	_, store, players, clubs := setup(t)
	// The old-club removal is recorded; its club entity must propagate
	// into the binding so nothing is double-suggested.
	store.AddActions(action.Action{
		Op: action.Remove, Edge: action.Edge{Src: players[0], Label: "current_club", Dst: clubs[1]}, T: 20,
	})
	as := NewAssistant(store, []KnownPattern{{Pattern: transfer3(), Frequency: 0.6, Width: 100}})
	edit := action.Action{Op: action.Add, Edge: action.Edge{Src: players[0], Label: "current_club", Dst: clubs[0]}, T: 50}
	advices := mustSuggest(t, as, edit, 50)
	if len(advices) != 1 {
		t.Fatalf("advices = %d", len(advices))
	}
	adv := advices[0]
	if len(adv.Done) != 1 {
		t.Fatalf("done = %+v", adv.Done)
	}
	if adv.Done[0].Dst != clubs[1] {
		t.Fatalf("old club should be bound from the recorded removal: %+v", adv.Done[0])
	}
	if len(adv.Missing) != 1 || adv.Missing[0].Label != "squad" {
		t.Fatalf("missing = %+v", adv.Missing)
	}
}

func TestSuggestIgnoresUnrelatedEdits(t *testing.T) {
	_, store, players, clubs := setup(t)
	as := NewAssistant(store, []KnownPattern{{Pattern: reciprocal(), Frequency: 0.8, Width: 100}})
	// Wrong label.
	edit := action.Action{Op: action.Add, Edge: action.Edge{Src: players[0], Label: "sponsor", Dst: clubs[0]}, T: 50}
	if got := mustSuggest(t, as, edit, 50); len(got) != 0 {
		t.Fatalf("unrelated edit advised: %v", got)
	}
	// Wrong op.
	edit = action.Action{Op: action.Remove, Edge: action.Edge{Src: players[0], Label: "current_club", Dst: clubs[0]}, T: 50}
	if got := mustSuggest(t, as, edit, 50); len(got) != 0 {
		t.Fatalf("wrong-op edit advised: %v", got)
	}
}

func TestSuggestOrdersByFrequency(t *testing.T) {
	_, store, players, clubs := setup(t)
	as := NewAssistant(store, []KnownPattern{
		{Pattern: transfer3(), Frequency: 0.4, Width: 100},
		{Pattern: reciprocal(), Frequency: 0.9, Width: 100},
	})
	edit := action.Action{Op: action.Add, Edge: action.Edge{Src: players[0], Label: "current_club", Dst: clubs[0]}, T: 50}
	advices := mustSuggest(t, as, edit, 50)
	if len(advices) != 2 {
		t.Fatalf("advices = %d", len(advices))
	}
	if advices[0].Frequency < advices[1].Frequency {
		t.Fatal("advices must be ordered by frequency")
	}
}

func TestSuggestWindowAlignment(t *testing.T) {
	_, store, players, clubs := setup(t)
	// A companion edit in a previous window must not count as done.
	store.AddActions(action.Action{
		Op: action.Add, Edge: action.Edge{Src: clubs[0], Label: "squad", Dst: players[0]}, T: 40,
	})
	as := NewAssistant(store, []KnownPattern{{Pattern: reciprocal(), Frequency: 0.8, Width: 100}})
	edit := action.Action{Op: action.Add, Edge: action.Edge{Src: players[0], Label: "current_club", Dst: clubs[0]}, T: 150}
	advices := mustSuggest(t, as, edit, 150) // window [100, 200)
	if len(advices) != 1 || len(advices[0].Missing) != 1 {
		t.Fatalf("stale companion treated as done: %+v", advices)
	}
}

func TestSuggestWindowAlignmentNegativeTime(t *testing.T) {
	_, store, players, clubs := setup(t)
	// Both edits fall in [-100, 0): the companion must count as done.
	store.AddActions(action.Action{
		Op: action.Add, Edge: action.Edge{Src: clubs[0], Label: "squad", Dst: players[0]}, T: -50,
	})
	as := NewAssistant(store, []KnownPattern{{Pattern: reciprocal(), Frequency: 0.8, Width: 100}})
	edit := action.Action{Op: action.Add, Edge: action.Edge{Src: players[0], Label: "current_club", Dst: clubs[0]}, T: -30}
	advices := mustSuggest(t, as, edit, -30)
	if len(advices) != 1 || len(advices[0].Done) != 1 || len(advices[0].Missing) != 0 {
		t.Fatalf("companion at -50 not done for an edit at -30: %+v", advices)
	}
	// On a negative boundary the window starts there: [-100, 0) again.
	advices = mustSuggest(t, as, edit, -100)
	if len(advices) != 1 || len(advices[0].Done) != 1 {
		t.Fatalf("companion at -50 not done for an edit at -100: %+v", advices)
	}
}

// TestSuggestTimeRange pins the precondition on Suggest's time: TimeRange
// keeps the largest window width away from both int64 limits, and at its
// two ends the width-aligned window still holds a companion edit recorded
// just before or after.
func TestSuggestTimeRange(t *testing.T) {
	_, store, players, clubs := setup(t)
	as := NewAssistant(store, []KnownPattern{
		{Pattern: reciprocal(), Frequency: 0.8, Width: 100},
		{Pattern: transfer3(), Frequency: 0.5, Width: 40},
	})
	lo, hi := as.TimeRange()
	if lo != math.MinInt64+100 || hi != math.MaxInt64-100 {
		t.Fatalf("TimeRange() = [%d, %d], want one 100-wide window in from each limit", lo, hi)
	}
	// lo is 8 past its window's start and hi 7 past its own, so both
	// companions share the edit's window.
	for _, c := range []struct{ now, companion action.Time }{{lo, lo + 5}, {hi, hi - 5}} {
		store.AddActions(action.Action{
			Op: action.Add, Edge: action.Edge{Src: clubs[0], Label: "squad", Dst: players[0]}, T: c.companion,
		})
		edit := action.Action{Op: action.Add, Edge: action.Edge{Src: players[0], Label: "current_club", Dst: clubs[0]}, T: c.now}
		advices := mustSuggest(t, as, edit, c.now)
		if len(advices) != 2 || len(advices[0].Done) != 1 || len(advices[0].Missing) != 0 {
			t.Fatalf("edit at %d: companion at %d not done: %+v", c.now, c.companion, advices)
		}
	}
	if lo, hi := NewAssistant(store, nil).TimeRange(); lo != math.MinInt64 || hi != math.MaxInt64 {
		t.Fatalf("no patterns: TimeRange() = [%d, %d], want the whole int64 range", lo, hi)
	}
}

func TestFindPeriodicDetectsYearlyPattern(t *testing.T) {
	p := reciprocal()
	key := p.Canonical()
	occ := map[string][]Occurrence{
		key: {
			{Window: action.Window{Start: 0, End: 2 * action.Week}, Frequency: 0.8},
			{Window: action.Window{Start: action.Year, End: action.Year + 2*action.Week}, Frequency: 0.7},
			{Window: action.Window{Start: 2 * action.Year, End: 2*action.Year + 2*action.Week}, Frequency: 0.9},
		},
	}
	pats := map[string]pattern.Pattern{key: p}
	got := FindPeriodic(occ, pats, 0.25)
	if len(got) != 1 {
		t.Fatalf("periodic = %v", got)
	}
	pp := got[0]
	if pp.Period != action.Year {
		t.Errorf("period = %d", pp.Period)
	}
	if pp.Next.Start != 3*action.Year {
		t.Errorf("next = %v", pp.Next)
	}
	if pp.String() == "" {
		t.Error("String should render")
	}
}

func TestFindPeriodicRejectsIrregular(t *testing.T) {
	p := reciprocal()
	key := p.Canonical()
	occ := map[string][]Occurrence{
		key: {
			{Window: action.Window{Start: 0, End: action.Week}},
			{Window: action.Window{Start: 10 * action.Week, End: 11 * action.Week}},
			{Window: action.Window{Start: 12 * action.Week, End: 13 * action.Week}},
		},
	}
	if got := FindPeriodic(occ, map[string]pattern.Pattern{key: p}, 0.25); len(got) != 0 {
		t.Fatalf("irregular occurrences accepted: %v", got)
	}
}

func TestFindPeriodicNeedsTwoOccurrences(t *testing.T) {
	p := reciprocal()
	key := p.Canonical()
	occ := map[string][]Occurrence{
		key: {{Window: action.Window{Start: 0, End: action.Week}}},
	}
	if got := FindPeriodic(occ, map[string]pattern.Pattern{key: p}, 0.25); len(got) != 0 {
		t.Fatalf("single occurrence accepted: %v", got)
	}
}

func TestFindPeriodicToleranceBoundary(t *testing.T) {
	p := reciprocal()
	key := p.Canonical()
	// Gaps 10w and 12w: mean 11w, deviations ~9.1% — inside 0.1? 1w/11w
	// ≈ 0.0909 <= 0.1, accepted; at tolerance 0.05 rejected.
	occ := map[string][]Occurrence{
		key: {
			{Window: action.Window{Start: 0, End: action.Week}},
			{Window: action.Window{Start: 10 * action.Week, End: 11 * action.Week}},
			{Window: action.Window{Start: 22 * action.Week, End: 23 * action.Week}},
		},
	}
	pats := map[string]pattern.Pattern{key: p}
	if got := FindPeriodic(occ, pats, 0.10); len(got) != 1 {
		t.Fatalf("within tolerance rejected: %v", got)
	}
	if got := FindPeriodic(occ, pats, 0.05); len(got) != 0 {
		t.Fatalf("outside tolerance accepted: %v", got)
	}
}

// TestIndexSize checks the inverted index's reported dimensions.
func TestIndexSize(t *testing.T) {
	_, store, _, _ := setup(t)
	as := NewAssistant(store, []KnownPattern{
		{Pattern: reciprocal(), Frequency: 0.8, Width: 100},
		{Pattern: transfer3(), Frequency: 0.6, Width: 100},
	})
	keys, entries := as.IndexSize()
	if entries != 5 { // 2 + 3 abstract actions
		t.Errorf("entries = %d, want 5", entries)
	}
	if keys == 0 || keys > entries {
		t.Errorf("keys = %d out of (0, %d]", keys, entries)
	}
}

// mustSuggest runs Suggest and fails the test on an error.
func mustSuggest(t testing.TB, as *Assistant, edit action.Action, now action.Time) []Advice {
	t.Helper()
	advices, err := as.Suggest(edit, now)
	if err != nil {
		t.Fatal(err)
	}
	return advices
}

// realizes reports whether the concrete edit realizes the abstract action.
func realizes(reg *taxonomy.Registry, edit action.Action, p pattern.Pattern, abs pattern.AbstractAction) bool {
	if edit.Op != abs.Op || edit.Edge.Label != abs.Label {
		return false
	}
	return reg.HasType(edit.Edge.Src, p.Vars[abs.Src]) && reg.HasType(edit.Edge.Dst, p.Vars[abs.Dst])
}

// suggestBruteForce is the reference implementation of Suggest: scan every
// pattern, match its first realized action, align the window by flooring
// now to the width, and search companions with oracleCompanions. It shares
// no code with the assistant beyond its pattern list.
func suggestBruteForce(a *Assistant, edit action.Action, now action.Time) []Advice {
	reg := a.store.Registry()
	var out []Advice
	for _, kp := range a.patterns {
		p := kp.Pattern
		for ai, abs := range p.Actions {
			if !realizes(reg, edit, p, abs) {
				continue
			}
			binding := make([]taxonomy.EntityID, len(p.Vars))
			for i := range binding {
				binding[i] = taxonomy.NoEntity
			}
			binding[abs.Src] = edit.Edge.Src
			binding[abs.Dst] = edit.Edge.Dst
			width := kp.Width
			if width <= 0 {
				width = 2 * action.Week
			}
			start := now - now%width
			if start > now {
				start -= width
			}
			win := action.Window{Start: start, End: start + width}
			done, missing := oracleCompanions(a.store, p, ai, binding, win)
			out = append(out, Advice{Pattern: p, Frequency: kp.Frequency, Matched: ai, Done: done, Missing: missing})
			break
		}
	}
	return out
}

// oracleCompanions is the reference companion search: it reduces the
// window's actions of every entity of every type in the pattern once,
// then searches that one list linearly for each companion, sweeping until
// no binding is added. It reads far more than the assistant's per-lookup
// reads and shares no code with them.
func oracleCompanions(store mining.Store, p pattern.Pattern, matched int, binding []taxonomy.EntityID, win action.Window) (done, missing []detect.Suggestion) {
	reg := store.Registry()
	var ids []taxonomy.EntityID
	seen := map[taxonomy.EntityID]bool{}
	for _, t := range p.TypeSet() {
		for _, id := range reg.EntitiesOf(t) {
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
	}
	reduced := action.Reduce(store.ActionsOf(ids, win))

	handled := make([]bool, len(p.Actions))
	handled[matched] = true
	for round := 0; round < len(p.Actions); round++ {
		progressed := false
		for ai, abs := range p.Actions {
			if handled[ai] {
				continue
			}
			src, dst := binding[abs.Src], binding[abs.Dst]
			if src == taxonomy.NoEntity && dst == taxonomy.NoEntity {
				continue
			}
			handled[ai] = true
			progressed = true
			found, other := oracleLookup(reg, reduced, abs, p, src, dst)
			sug := detect.Suggestion{
				Op: abs.Op, Src: src, SrcType: p.Vars[abs.Src],
				Label: abs.Label, Dst: dst, DstType: p.Vars[abs.Dst],
			}
			if !found {
				missing = append(missing, sug)
				continue
			}
			if src == taxonomy.NoEntity {
				binding[abs.Src] = other
				sug.Src = other
			}
			if dst == taxonomy.NoEntity {
				binding[abs.Dst] = other
				sug.Dst = other
			}
			done = append(done, sug)
		}
		if !progressed {
			break
		}
	}
	for ai, abs := range p.Actions {
		if handled[ai] {
			continue
		}
		missing = append(missing, detect.Suggestion{
			Op: abs.Op, Src: binding[abs.Src], SrcType: p.Vars[abs.Src],
			Label: abs.Label, Dst: binding[abs.Dst], DstType: p.Vars[abs.Dst],
		})
	}
	return done, missing
}

// oracleLookup returns the first reduced action realizing abs under the
// partial binding (src, dst), and the entity it binds on the open side.
func oracleLookup(reg *taxonomy.Registry, reduced []action.Action, abs pattern.AbstractAction, p pattern.Pattern, src, dst taxonomy.EntityID) (bool, taxonomy.EntityID) {
	for _, c := range reduced {
		if c.Op != abs.Op || c.Edge.Label != abs.Label {
			continue
		}
		if src != taxonomy.NoEntity && c.Edge.Src != src {
			continue
		}
		if dst != taxonomy.NoEntity && c.Edge.Dst != dst {
			continue
		}
		if !reg.HasType(c.Edge.Src, p.Vars[abs.Src]) || !reg.HasType(c.Edge.Dst, p.Vars[abs.Dst]) {
			continue
		}
		switch {
		case src == taxonomy.NoEntity:
			return true, c.Edge.Src
		case dst == taxonomy.NoEntity:
			return true, c.Edge.Dst
		}
		return true, taxonomy.NoEntity
	}
	return false, taxonomy.NoEntity
}

// TestSuggestIndexMatchesBruteForce drives the indexed Suggest and the
// reference full scan over every (entity, op, label) combination of a
// multi-pattern world and asserts identical advice, including the
// supertype-matching path (patterns over Athlete must fire for
// FootballPlayer edits).
func TestSuggestIndexMatchesBruteForce(t *testing.T) {
	reg, store, players, clubs := setup(t)
	athleteReciprocal := pattern.Pattern{
		Vars: []taxonomy.Type{"Athlete", "Organisation"},
		Actions: []pattern.AbstractAction{
			{Op: action.Add, Src: 0, Label: "member_of", Dst: 1},
			{Op: action.Add, Src: 1, Label: "roster", Dst: 0},
		},
	}
	as := NewAssistant(store, []KnownPattern{
		{Pattern: reciprocal(), Frequency: 0.8, Width: 100},
		{Pattern: transfer3(), Frequency: 0.6, Width: 100},
		{Pattern: athleteReciprocal, Frequency: 0.7, Width: 200},
	})
	// Seed some window history so done/missing splits are non-trivial.
	store.AddActions(
		action.Action{Op: action.Add, Edge: action.Edge{Src: clubs[0], Label: "squad", Dst: players[0]}, T: 10},
		action.Action{Op: action.Remove, Edge: action.Edge{Src: players[1], Label: "current_club", Dst: clubs[1]}, T: 20},
	)
	subjects := append(append([]taxonomy.EntityID{}, players...), clubs...)
	for _, src := range subjects {
		for _, dst := range subjects {
			for _, op := range []action.Op{action.Add, action.Remove} {
				for _, label := range []action.Label{"current_club", "squad", "member_of", "roster", "unrelated"} {
					edit := action.Action{Op: op, Edge: action.Edge{Src: src, Label: label, Dst: dst}, T: 50}
					got := mustSuggest(t, as, edit, 50)
					want := suggestBruteForce(as, edit, 50)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("divergence for op=%d label=%s src=%s dst=%s:\n got %+v\nwant %+v",
							op, label, reg.Name(src), reg.Name(dst), got, want)
					}
				}
			}
		}
	}
}

// TestSuggestMatchesOracleOnSynthWorld compares Suggest with the reference
// implementation on a generated Soccer world read through the default
// source stack (the LRU cache over the in-memory history), with the
// domain catalog's patterns registered at four window widths. Every
// distinct edge of the world is asked as an addition and as a removal at
// several times, so companions come out done, missing and bound
// transitively, on both sides of window boundaries and before the span
// (at negative times).
func TestSuggestMatchesOracleOnSynthWorld(t *testing.T) {
	w, err := synth.Generate(synth.DefaultParams(synth.Soccer(), 40))
	if err != nil {
		t.Fatal(err)
	}
	src, err := source.DefaultOptions().Build(w.History, w.Reg)
	if err != nil {
		t.Fatal(err)
	}
	store := source.NewStore(context.Background(), src)
	var known []KnownPattern
	for i, c := range w.CatalogPatterns() {
		for j, weeks := range []action.Time{4, 8, 16, 52} {
			known = append(known, KnownPattern{
				Pattern:   c.Pattern,
				Frequency: 1 - float64(4*i+j)/100,
				Width:     weeks * action.Week,
			})
		}
	}
	as := NewAssistant(store, known)

	var edges []action.Edge
	first := map[action.Edge]action.Time{}
	for _, a := range w.History.AllActions(w.Span) {
		if _, ok := first[a.Edge]; !ok {
			first[a.Edge] = a.T
			edges = append(edges, a.Edge)
		}
	}
	asked, advised := 0, 0
	for _, e := range edges {
		for _, at := range []action.Time{first[e], first[e] + 3*action.Day, first[e] + 5*action.Week, first[e] - action.Year} {
			for _, op := range []action.Op{action.Add, action.Remove} {
				edit := action.Action{Op: op, Edge: e, T: at}
				got := mustSuggest(t, as, edit, at)
				want := suggestBruteForce(as, edit, at)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("divergence for %s at %d:\n got %+v\nwant %+v", edit.Format(w.Reg), at, got, want)
				}
				asked++
				advised += len(got)
			}
		}
	}
	if advised == 0 {
		t.Fatalf("%d edits asked, none advised: the catalog patterns never matched", asked)
	}
	t.Logf("%d edits asked, %d advices compared", asked, advised)
}
