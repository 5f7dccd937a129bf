package pattern

import (
	"slices"
	"strings"
	"testing"

	"wiclean/internal/action"
	"wiclean/internal/taxonomy"
)

func soccerTax(t *testing.T) *taxonomy.Taxonomy {
	t.Helper()
	x := taxonomy.New()
	x.AddChain("Agent", "Person", "Athlete", "FootballPlayer", "Goalkeeper")
	x.AddChain("Agent", "Organisation", "SportsTeam", "FootballClub")
	x.AddChain("Agent", "Organisation", "SportsLeague")
	return x
}

// transferPattern is the Figure 3 shape: player changes club, clubs update
// squads, player changes league.
func transferPattern() Pattern {
	return Pattern{
		Vars: []taxonomy.Type{"FootballPlayer", "FootballClub", "FootballClub", "SportsLeague", "SportsLeague"},
		Actions: []AbstractAction{
			{Op: action.Add, Src: 0, Label: "current_club", Dst: 1},
			{Op: action.Remove, Src: 0, Label: "current_club", Dst: 2},
			{Op: action.Add, Src: 1, Label: "squad", Dst: 0},
			{Op: action.Remove, Src: 2, Label: "squad", Dst: 0},
			{Op: action.Add, Src: 0, Label: "in_league", Dst: 3},
			{Op: action.Remove, Src: 0, Label: "in_league", Dst: 4},
		},
	}
}

func TestSingletonAndValidate(t *testing.T) {
	p := Singleton(action.Add, "FootballPlayer", "current_club", "FootballClub")
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if p.Size() != 1 || p.NumVars() != 2 {
		t.Fatalf("Singleton size/vars = %d/%d", p.Size(), p.NumVars())
	}
	if p.Vars[SourceVar] != "FootballPlayer" {
		t.Fatal("source var must be the action source type")
	}
}

func TestValidateRejectsBadPatterns(t *testing.T) {
	if err := (Pattern{}).Validate(); err == nil {
		t.Error("empty pattern should fail")
	}
	bad := Pattern{
		Vars:    []taxonomy.Type{"A"},
		Actions: []AbstractAction{{Op: action.Add, Src: 0, Label: "l", Dst: 5}},
	}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range variable should fail")
	}
	unused := Pattern{
		Vars:    []taxonomy.Type{"A", "B", "C"},
		Actions: []AbstractAction{{Op: action.Add, Src: 0, Label: "l", Dst: 1}},
	}
	if err := unused.Validate(); err == nil {
		t.Error("unused variable should fail")
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := transferPattern()
	c := p.Clone()
	c.Vars[0] = "Changed"
	c.Actions[0].Label = "changed"
	if p.Vars[0] != "FootballPlayer" || p.Actions[0].Label != "current_club" {
		t.Fatal("Clone must be deep")
	}
}

func TestConnectivity(t *testing.T) {
	tax := soccerTax(t)
	p := transferPattern()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	src, ok := p.IsConnected(tax, "FootballPlayer")
	if !ok || src != 0 {
		t.Fatalf("transfer pattern should be connected from var 0, got %d %v", src, ok)
	}
	// The Figure 2(b) disconnection: replacing player1 by a fresh player2
	// in both team2-related actions splits the pattern in two components.
	q := p.Clone()
	q.Vars = append(q.Vars, "FootballPlayer")
	q.Actions[1].Src = 5 // player2 leaves team2
	q.Actions[3].Dst = 5 // team2 removes player2
	if _, ok := q.IsConnected(tax, "FootballPlayer"); ok {
		t.Fatal("modified pattern should be disconnected")
	}
}

func TestIsConnectedSeedTypeComparability(t *testing.T) {
	tax := soccerTax(t)
	p := Singleton(action.Add, "Athlete", "current_club", "FootballClub")
	// Athlete is comparable with FootballPlayer (generalizes it), so the
	// pattern is connected w.r.t. FootballPlayer.
	if _, ok := p.IsConnected(tax, "FootballPlayer"); !ok {
		t.Error("Athlete-sourced pattern should connect for FootballPlayer seed")
	}
	if _, ok := p.IsConnected(tax, "FootballClub"); ok {
		t.Error("pattern source type incomparable with FootballClub")
	}
}

func TestConnectedFromOutOfRange(t *testing.T) {
	p := Singleton(action.Add, "A", "l", "B")
	if p.ConnectedFrom(99) {
		t.Error("out-of-range var cannot be a source")
	}
}

func TestTypeSetSorted(t *testing.T) {
	p := transferPattern()
	ts := p.TypeSet()
	if len(ts) != 3 {
		t.Fatalf("TypeSet = %v", ts)
	}
	for i := 1; i < len(ts); i++ {
		if ts[i-1] >= ts[i] {
			t.Fatal("TypeSet must be sorted and unique")
		}
	}
}

func TestVarNames(t *testing.T) {
	p := Singleton(action.Add, "A", "l", "B")
	names := p.VarNames()
	if names[0] != "v0" || names[1] != "v1" {
		t.Fatalf("VarNames = %v", names)
	}
}

func TestStringRendersNotation(t *testing.T) {
	p := Singleton(action.Remove, "FootballPlayer", "current_club", "FootballClub")
	s := p.String()
	if !strings.Contains(s, "current_club") || !strings.Contains(s, "-") {
		t.Fatalf("String = %q", s)
	}
}

// TestStringMatchesParentNotation pins the notation's bytes: each want is
// what fmt's "{%s, (%s_%d, %s, %s_%d)}" wrote per action before String
// stopped formatting through fmt.
func TestStringMatchesParentNotation(t *testing.T) {
	clubs := []taxonomy.Type{"FootballPlayer"}
	for len(clubs) < 12 {
		clubs = append(clubs, "FootballClub")
	}
	for _, c := range []struct {
		p    Pattern
		want string
	}{
		{Pattern{}, "[]"},
		{Singleton(action.Add, "FootballPlayer", "current_club", "FootballClub"),
			"[{+, (FootballPlayer_0, current_club, FootballClub_1)}]"},
		{Singleton(action.Remove, "Athlete", "in_league", "SportsLeague"),
			"[{-, (Athlete_0, in_league, SportsLeague_1)}]"},
		{Singleton(action.Op(0), "Person", "spouse", "Person"),
			"[{?, (Person_0, spouse, Person_1)}]"},
		{Singleton(action.Op(7), "Film", "starring", "Actor"),
			"[{?, (Film_0, starring, Actor_1)}]"},
		{Pattern{Vars: clubs, Actions: []AbstractAction{
			{Op: action.Add, Src: 0, Label: "loan", Dst: 10},
			{Op: action.Remove, Src: 10, Label: "squad", Dst: 11},
		}}, "[{+, (FootballPlayer_0, loan, FootballClub_10)}, {-, (FootballClub_10, squad, FootballClub_11)}]"},
		{transferPattern(), "[{+, (FootballPlayer_0, current_club, FootballClub_1)}, " +
			"{-, (FootballPlayer_0, current_club, FootballClub_2)}, {+, (FootballClub_1, squad, FootballPlayer_0)}, " +
			"{-, (FootballClub_2, squad, FootballPlayer_0)}, {+, (FootballPlayer_0, in_league, SportsLeague_3)}, " +
			"{-, (FootballPlayer_0, in_league, SportsLeague_4)}]"},
	} {
		if got := c.p.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestCanonicalInvariantUnderIsomorphism(t *testing.T) {
	// Swap the two club variables and the two league variables (same-type
	// renamings): canonical keys must match.
	p := transferPattern()
	q := p.Clone()
	// Swap vars 1<->2 and 3<->4 in all actions.
	swap := map[VarID]VarID{0: 0, 1: 2, 2: 1, 3: 4, 4: 3}
	for i, a := range q.Actions {
		q.Actions[i].Src = swap[a.Src]
		q.Actions[i].Dst = swap[a.Dst]
	}
	if p.Canonical() != q.Canonical() {
		t.Fatalf("isomorphic patterns differ:\n%s\n%s", p.Canonical(), q.Canonical())
	}
	if !p.Equal(q) {
		t.Fatal("Equal should hold for isomorphic patterns")
	}
}

func TestCanonicalDistinguishesDifferentPatterns(t *testing.T) {
	p := Singleton(action.Add, "FootballPlayer", "current_club", "FootballClub")
	q := Singleton(action.Remove, "FootballPlayer", "current_club", "FootballClub")
	if p.Canonical() == q.Canonical() {
		t.Fatal("different ops must differ")
	}
	r := Singleton(action.Add, "Athlete", "current_club", "FootballClub")
	if p.Canonical() == r.Canonical() {
		t.Fatal("different source types must differ")
	}
}

func TestCanonicalPinsSource(t *testing.T) {
	// Two same-type variables where one is the source: exchanging the
	// source role produces a different pattern (frequency is measured on
	// the source), so canonical keys must differ.
	p := Pattern{
		Vars: []taxonomy.Type{"FootballPlayer", "FootballPlayer"},
		Actions: []AbstractAction{
			{Op: action.Add, Src: 0, Label: "teammate", Dst: 1},
			{Op: action.Remove, Src: 1, Label: "rival", Dst: 0},
		},
	}
	q := Pattern{
		Vars: []taxonomy.Type{"FootballPlayer", "FootballPlayer"},
		Actions: []AbstractAction{
			{Op: action.Add, Src: 1, Label: "teammate", Dst: 0},
			{Op: action.Remove, Src: 0, Label: "rival", Dst: 1},
		},
	}
	if p.Canonical() == q.Canonical() {
		t.Fatal("source-swapped patterns must not be identified")
	}
}

func TestCanonicalEmptyPattern(t *testing.T) {
	if (Pattern{}).Canonical() != "[]" {
		t.Error("empty pattern canonical")
	}
}

func TestSubsumesActionRemoval(t *testing.T) {
	tax := soccerTax(t)
	full := transferPattern()
	partial := Pattern{
		Vars: []taxonomy.Type{"FootballPlayer", "FootballClub"},
		Actions: []AbstractAction{
			{Op: action.Add, Src: 0, Label: "current_club", Dst: 1},
		},
	}
	if !Subsumes(partial, full, tax) {
		t.Fatal("single-action pattern should subsume the full transfer")
	}
	if Subsumes(full, partial, tax) {
		t.Fatal("full pattern cannot be obtained from the singleton")
	}
}

func TestSubsumesTypeGeneralization(t *testing.T) {
	tax := soccerTax(t)
	specific := Singleton(action.Add, "FootballPlayer", "current_club", "FootballClub")
	general := Singleton(action.Add, "Athlete", "current_club", "SportsTeam")
	if !Subsumes(general, specific, tax) {
		t.Fatal("generalized types should subsume")
	}
	if Subsumes(specific, general, tax) {
		t.Fatal("specialization is not subsumption")
	}
	unrelated := Singleton(action.Add, "SportsLeague", "current_club", "FootballClub")
	if Subsumes(unrelated, specific, tax) {
		t.Fatal("incomparable source types cannot subsume")
	}
}

func TestSubsumesP1P2P3Chain(t *testing.T) {
	// The paper's example: p1 ≺ p2 ≺ p3.
	tax := soccerTax(t)
	p1 := Pattern{
		Vars: []taxonomy.Type{"FootballPlayer", "FootballClub", "FootballClub"},
		Actions: []AbstractAction{
			{Op: action.Add, Src: 0, Label: "current_club", Dst: 1},
			{Op: action.Remove, Src: 0, Label: "current_club", Dst: 2},
		},
	}
	p2 := Pattern{
		Vars: []taxonomy.Type{"Athlete", "FootballClub", "FootballClub"},
		Actions: []AbstractAction{
			{Op: action.Add, Src: 0, Label: "current_club", Dst: 1},
			{Op: action.Remove, Src: 0, Label: "current_club", Dst: 2},
		},
	}
	p3 := Pattern{
		Vars: []taxonomy.Type{"Athlete", "FootballClub"},
		Actions: []AbstractAction{
			{Op: action.Add, Src: 0, Label: "current_club", Dst: 1},
		},
	}
	if !StrictlyMoreSpecific(p1, p2, tax) {
		t.Error("p1 ≺ p2 expected")
	}
	if !StrictlyMoreSpecific(p2, p3, tax) {
		t.Error("p2 ≺ p3 expected")
	}
	if !StrictlyMoreSpecific(p1, p3, tax) {
		t.Error("p1 ≺ p3 expected (transitivity)")
	}
	if StrictlyMoreSpecific(p2, p1, tax) || StrictlyMoreSpecific(p3, p1, tax) {
		t.Error("≺ must be antisymmetric")
	}
	if StrictlyMoreSpecific(p1, p1, tax) {
		t.Error("≺ must be irreflexive")
	}
}

func TestSubsumesRespectsInjectivity(t *testing.T) {
	tax := soccerTax(t)
	// Two distinct club variables cannot both map to the single club
	// variable of the specific pattern.
	twoClubs := Pattern{
		Vars: []taxonomy.Type{"FootballPlayer", "FootballClub", "FootballClub"},
		Actions: []AbstractAction{
			{Op: action.Add, Src: 0, Label: "current_club", Dst: 1},
			{Op: action.Remove, Src: 0, Label: "current_club", Dst: 2},
		},
	}
	oneClub := Pattern{
		Vars: []taxonomy.Type{"FootballPlayer", "FootballClub"},
		Actions: []AbstractAction{
			{Op: action.Add, Src: 0, Label: "current_club", Dst: 1},
			{Op: action.Remove, Src: 0, Label: "current_club", Dst: 1},
		},
	}
	if Subsumes(twoClubs, oneClub, tax) {
		t.Fatal("injectivity violated: two variables mapped to one")
	}
}

func TestMostSpecificFiltersAndDedups(t *testing.T) {
	tax := soccerTax(t)
	specific := Singleton(action.Add, "FootballPlayer", "current_club", "FootballClub")
	general := Singleton(action.Add, "Athlete", "current_club", "SportsTeam")
	dup := Singleton(action.Add, "FootballPlayer", "current_club", "FootballClub")
	other := Singleton(action.Remove, "FootballPlayer", "in_league", "SportsLeague")

	// MostSpecific takes one pattern per class; the oracle dedups the
	// isomorphic copy itself.
	if got := MostSpecific([]Pattern{general, specific, other}, tax); !slices.Equal(got, []int{1, 2}) {
		t.Fatalf("MostSpecific = %v, want [1 2]", got)
	}
	out := mostSpecificOracle([]Pattern{general, specific, dup, other}, tax)
	if len(out) != 2 {
		t.Fatalf("oracle = %d patterns: %v", len(out), out)
	}
	for _, p := range out {
		if p.Equal(general) {
			t.Fatal("general pattern should be dominated")
		}
	}
}

func TestTemplatesOfEnumeratesHierarchy(t *testing.T) {
	tax := soccerTax(t)
	reg := taxonomy.NewRegistry(tax)
	buffon := reg.MustAdd("Buffon", "Goalkeeper")
	juve := reg.MustAdd("Juventus", "FootballClub")
	a := action.Action{Op: action.Add, Edge: action.Edge{Src: buffon, Label: "current_club", Dst: juve}, T: 1}

	all := TemplatesOf(a, reg, -1)
	// Goalkeeper chain has 6 ancestors, FootballClub has 5 -> 30 templates.
	if len(all) != 30 {
		t.Fatalf("unbounded templates = %d, want 30", len(all))
	}
	capped := TemplatesOf(a, reg, 1)
	// 2 src levels x 2 dst levels.
	if len(capped) != 4 {
		t.Fatalf("capped templates = %d, want 4", len(capped))
	}
	if capped[0].SrcType != "Goalkeeper" || capped[0].DstType != "FootballClub" {
		t.Fatalf("first template should be the most specific: %v", capped[0])
	}
	if capped[0].String() == "" {
		t.Error("Template.String should render")
	}
}

func TestTemplateAsSingleton(t *testing.T) {
	tm := Template{Op: action.Add, SrcType: "A", Label: "l", DstType: "B"}
	p := tm.AsSingleton()
	if p.Vars[0] != "A" || p.Vars[1] != "B" || p.Actions[0].Label != "l" {
		t.Fatalf("AsSingleton = %v", p)
	}
}

func TestExtensionsEnumeration(t *testing.T) {
	p := Singleton(action.Add, "FootballPlayer", "current_club", "FootballClub")
	// Extend with the reciprocal squad action: club -> player.
	tm := Template{Op: action.Add, SrcType: "FootballClub", Label: "squad", DstType: "FootballPlayer"}
	exts := p.AppendExtensions(nil, tm)
	// Source must glue to var 1 (the club). Target: glue to var 0
	// (player), or fresh player variable -> 2 extensions.
	if len(exts) != 2 {
		t.Fatalf("extensions = %d: %v", len(exts), exts)
	}
	var glued, fresh int
	for _, e := range exts {
		if err := p.Extend(tm, e).Validate(); err != nil {
			t.Fatalf("extension invalid: %v", err)
		}
		if e.SrcVar != 1 {
			t.Errorf("source should glue to club var: %+v", e)
		}
		if e.NewVar {
			fresh++
			if int(e.DstVar) != 2 {
				t.Errorf("fresh var should be index 2: %+v", e)
			}
		} else {
			glued++
			if e.DstVar != 0 {
				t.Errorf("glued target should be player var: %+v", e)
			}
		}
	}
	if glued != 1 || fresh != 1 {
		t.Fatalf("glued=%d fresh=%d", glued, fresh)
	}
	if p.Size() != 1 || p.NumVars() != 2 {
		t.Fatalf("Extend modified its receiver: %v", p)
	}
}

func TestExtensionsNoMatchingSource(t *testing.T) {
	p := Singleton(action.Add, "FootballPlayer", "current_club", "FootballClub")
	tm := Template{Op: action.Add, SrcType: "SportsLeague", Label: "l", DstType: "FootballClub"}
	if exts := p.AppendExtensions(nil, tm); len(exts) != 0 {
		t.Fatalf("no source to glue, got %v", exts)
	}
}

func TestExtensionsSkipDuplicatesAndSelfLoops(t *testing.T) {
	p := Singleton(action.Add, "FootballPlayer", "current_club", "FootballClub")
	// Extending with the exact same action: the glued variant duplicates
	// and is skipped; only the fresh-variable variant remains.
	tm := Template{Op: action.Add, SrcType: "FootballPlayer", Label: "current_club", DstType: "FootballClub"}
	exts := p.AppendExtensions(nil, tm)
	if len(exts) != 1 || !exts[0].NewVar {
		t.Fatalf("expected only the fresh-variable extension: %v", exts)
	}
	// Self-loop: template with equal src/dst type never glues dst onto the
	// same variable as src.
	loop := Singleton(action.Add, "FootballPlayer", "teammate", "FootballPlayer")
	tm2 := Template{Op: action.Remove, SrcType: "FootballPlayer", Label: "teammate", DstType: "FootballPlayer"}
	for _, e := range loop.AppendExtensions(nil, tm2) {
		ext := loop.Extend(tm2, e)
		last := ext.Actions[len(ext.Actions)-1]
		if last.Src == last.Dst {
			t.Fatalf("self-loop extension produced: %v", ext)
		}
	}
}

func TestExtensionsKeepConnectivity(t *testing.T) {
	tax := soccerTax(t)
	p := Singleton(action.Add, "FootballPlayer", "current_club", "FootballClub")
	templates := []Template{
		{Op: action.Add, SrcType: "FootballClub", Label: "squad", DstType: "FootballPlayer"},
		{Op: action.Remove, SrcType: "FootballPlayer", Label: "current_club", DstType: "FootballClub"},
		{Op: action.Add, SrcType: "FootballPlayer", Label: "in_league", DstType: "SportsLeague"},
	}
	frontier := []Pattern{p}
	for _, tm := range templates {
		var next []Pattern
		for _, q := range frontier {
			for _, e := range q.AppendExtensions(nil, tm) {
				ext := q.Extend(tm, e)
				if _, ok := ext.IsConnected(tax, "FootballPlayer"); !ok {
					t.Fatalf("extension broke connectivity: %v", ext)
				}
				next = append(next, ext)
			}
		}
		frontier = append(frontier, next...)
	}
}

func TestCollidableVars(t *testing.T) {
	tax := soccerTax(t)
	p := Pattern{
		Vars: []taxonomy.Type{"FootballPlayer", "FootballClub", "Athlete"},
		Actions: []AbstractAction{
			{Op: action.Add, Src: 0, Label: "a", Dst: 1},
			{Op: action.Add, Src: 0, Label: "b", Dst: 2},
		},
	}
	// A fresh Goalkeeper variable can collide with FootballPlayer (var 0)
	// and Athlete (var 2), not with FootballClub.
	got := p.CollidableVars(tax, "Goalkeeper", -1)
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("CollidableVars = %v", got)
	}
	// Excluding var 0.
	got = p.CollidableVars(tax, "Goalkeeper", 0)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("CollidableVars excl = %v", got)
	}
}

func TestHasAction(t *testing.T) {
	p := Singleton(action.Add, "A", "l", "B")
	if !p.HasAction(p.Actions[0]) {
		t.Error("HasAction should find own action")
	}
	if p.HasAction(AbstractAction{Op: action.Remove, Src: 0, Label: "l", Dst: 1}) {
		t.Error("HasAction false positive")
	}
}

// Property: canonical keys are invariant under random same-type
// permutations of non-source variables.
func TestCanonicalPermutationProperty(t *testing.T) {
	p := transferPattern()
	base := p.Canonical()
	perms := [][]VarID{
		{0, 2, 1, 3, 4},
		{0, 1, 2, 4, 3},
		{0, 2, 1, 4, 3},
	}
	for _, perm := range perms {
		q := p.Clone()
		for i, a := range q.Actions {
			q.Actions[i].Src = perm[a.Src]
			q.Actions[i].Dst = perm[a.Dst]
		}
		if q.Canonical() != base {
			t.Fatalf("perm %v changed canonical key", perm)
		}
	}
}

// Property: Subsumes is reflexive and transitive on a pattern family.
func TestSubsumesReflexiveTransitiveProperty(t *testing.T) {
	tax := soccerTax(t)
	family := []Pattern{
		transferPattern(),
		Singleton(action.Add, "FootballPlayer", "current_club", "FootballClub"),
		Singleton(action.Add, "Athlete", "current_club", "SportsTeam"),
		Singleton(action.Add, "Person", "current_club", "Organisation"),
	}
	for _, p := range family {
		if !Subsumes(p, p, tax) {
			t.Fatalf("Subsumes not reflexive for %v", p)
		}
	}
	for _, a := range family {
		for _, b := range family {
			for _, c := range family {
				if Subsumes(a, b, tax) && Subsumes(b, c, tax) && !Subsumes(a, c, tax) {
					t.Fatalf("transitivity violated: %v, %v, %v", a, b, c)
				}
			}
		}
	}
}
