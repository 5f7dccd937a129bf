package action

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"wiclean/internal/taxonomy"
)

func mkAction(op Op, src taxonomy.EntityID, l Label, dst taxonomy.EntityID, t Time) Action {
	return Action{Op: op, Edge: Edge{Src: src, Label: l, Dst: dst}, T: t}
}

func TestOpStringAndInverse(t *testing.T) {
	if Add.String() != "+" || Remove.String() != "-" {
		t.Errorf("Op strings: %s %s", Add, Remove)
	}
	if Op(0).String() != "?" {
		t.Errorf("zero Op should render '?'")
	}
	if Add.Inverse() != Remove || Remove.Inverse() != Add {
		t.Error("Inverse should flip operations")
	}
}

func TestParseOp(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Op
		ok   bool
	}{
		{"+", Add, true},
		{"-", Remove, true},
		{"", 0, false},
		{"add", 0, false},
		{"remove", 0, false},
		{"+-", 0, false},
		{" +", 0, false},
		{"−", 0, false}, // U+2212 MINUS SIGN, not the ASCII hyphen
		{"?", 0, false},
	} {
		got, err := ParseOp(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParseOp(%q) = %v, %v; want %v, ok=%v", c.in, got, err, c.want, c.ok)
		}
		if err != nil && !strings.Contains(err.Error(), fmt.Sprintf("%q", c.in)) {
			t.Errorf("ParseOp(%q) error %q does not name the op", c.in, err)
		}
		if c.ok && got.String() != c.in {
			t.Errorf("ParseOp(%q).String() = %q", c.in, got)
		}
	}
}

func TestActionInverse(t *testing.T) {
	a := mkAction(Add, 1, "current_club", 2, 100)
	inv := a.Inverse()
	if !inv.IsInverseOf(a) || !a.IsInverseOf(inv) {
		t.Error("Inverse/IsInverseOf should be mutual")
	}
	if inv.Edge != a.Edge {
		t.Error("Inverse must keep the edge")
	}
	b := mkAction(Add, 1, "current_club", 3, 100)
	if b.IsInverseOf(a) {
		t.Error("different edges are not inverses")
	}
	if a.IsInverseOf(a) {
		t.Error("an action is not its own inverse")
	}
}

func TestSourceTarget(t *testing.T) {
	a := mkAction(Add, 7, "squad", 9, 5)
	if a.Source() != 7 || a.Target() != 9 {
		t.Errorf("Source/Target = %d/%d", a.Source(), a.Target())
	}
}

func TestWindowContainsAndSplit(t *testing.T) {
	w := Window{Start: 0, End: 4 * Week}
	if !w.Contains(0) || w.Contains(4*Week) || !w.Contains(4*Week-1) {
		t.Error("Contains should be half-open [Start, End)")
	}
	parts := w.Split(Week)
	if len(parts) != 4 {
		t.Fatalf("Split into %d parts, want 4", len(parts))
	}
	for i, p := range parts {
		if p.Width() != Week {
			t.Errorf("part %d width %d", i, p.Width())
		}
		if i > 0 && parts[i-1].Overlaps(p) {
			t.Errorf("parts %d and %d overlap", i-1, i)
		}
		if i > 0 && parts[i-1].End != p.Start {
			t.Errorf("gap between parts %d and %d", i-1, i)
		}
	}
	// Truncated tail.
	parts = Window{0, 10}.Split(4)
	if len(parts) != 3 || parts[2].Width() != 2 {
		t.Fatalf("Split(4) of [0,10) = %v", parts)
	}
	// Degenerate widths.
	if got := w.Split(0); len(got) != 1 || got[0] != w {
		t.Errorf("Split(0) = %v", got)
	}
	if got := w.Split(8 * Week); len(got) != 1 || got[0] != w {
		t.Errorf("oversize Split = %v", got)
	}
}

func TestWindowOverlaps(t *testing.T) {
	a := Window{0, 10}
	cases := []struct {
		b    Window
		want bool
	}{
		{Window{5, 15}, true},
		{Window{10, 20}, false}, // touching, half-open
		{Window{-5, 0}, false},
		{Window{-5, 1}, true},
		{Window{2, 3}, true},
	}
	for _, c := range cases {
		if got := a.Overlaps(c.b); got != c.want {
			t.Errorf("Overlaps(%v, %v) = %v, want %v", a, c.b, got, c.want)
		}
	}
}

func TestFilter(t *testing.T) {
	as := []Action{
		mkAction(Add, 1, "l", 2, 5),
		mkAction(Add, 1, "l", 3, 15),
		mkAction(Remove, 2, "l", 3, 25),
	}
	got := Filter(as, Window{10, 20})
	if len(got) != 1 || got[0].T != 15 {
		t.Fatalf("Filter = %v", got)
	}
}

func TestReduceCancelsAddRemovePairs(t *testing.T) {
	// Add then remove the same edge: net zero (a rumor that was reverted).
	as := []Action{
		mkAction(Add, 1, "current_club", 2, 10),
		mkAction(Remove, 1, "current_club", 2, 20),
	}
	if got := Reduce(as); len(got) != 0 {
		t.Fatalf("Reduce = %v, want empty", got)
	}
	if Redundancy(as) != 2 {
		t.Errorf("Redundancy = %d, want 2", Redundancy(as))
	}
}

func TestReduceRemoveThenAddBackCancels(t *testing.T) {
	// Remove then re-add: edge existed before, exists after -> net zero.
	as := []Action{
		mkAction(Remove, 1, "current_club", 2, 10),
		mkAction(Add, 1, "current_club", 2, 20),
	}
	if got := Reduce(as); len(got) != 0 {
		t.Fatalf("Reduce = %v, want empty", got)
	}
}

func TestReduceKeepsNetChange(t *testing.T) {
	// Add, remove, add again: net is a single add with the last timestamp.
	as := []Action{
		mkAction(Add, 1, "current_club", 2, 10),
		mkAction(Remove, 1, "current_club", 2, 20),
		mkAction(Add, 1, "current_club", 2, 30),
	}
	got := Reduce(as)
	if len(got) != 1 || got[0].Op != Add || got[0].T != 30 {
		t.Fatalf("Reduce = %v", got)
	}
}

func TestReduceIdempotentDuplicates(t *testing.T) {
	// Two consecutive adds of the same edge are one add (set semantics).
	as := []Action{
		mkAction(Add, 1, "squad", 2, 10),
		mkAction(Add, 1, "squad", 2, 20),
	}
	got := Reduce(as)
	if len(got) != 1 || got[0].Op != Add {
		t.Fatalf("Reduce = %v", got)
	}
}

func TestReduceIndependentEdges(t *testing.T) {
	as := []Action{
		mkAction(Remove, 1, "current_club", 2, 10), // leaves old club
		mkAction(Add, 1, "current_club", 3, 20),    // joins new club
		mkAction(Add, 3, "squad", 1, 30),           // new club adds player
		mkAction(Add, 1, "current_club", 4, 25),    // rumor
		mkAction(Remove, 1, "current_club", 4, 27), // rumor reverted
	}
	got := Reduce(as)
	if len(got) != 3 {
		t.Fatalf("Reduce = %v, want 3 surviving", got)
	}
	// Chronological order of surviving actions.
	for i := 1; i < len(got); i++ {
		if got[i-1].T > got[i].T {
			t.Error("Reduce output must be sorted by time")
		}
	}
}

func TestReduceEmptyAndUnsortedInput(t *testing.T) {
	if got := Reduce(nil); got != nil {
		t.Errorf("Reduce(nil) = %v", got)
	}
	// Unsorted input must be handled by sorting internally.
	as := []Action{
		mkAction(Remove, 1, "l", 2, 20),
		mkAction(Add, 1, "l", 2, 10),
	}
	if got := Reduce(as); len(got) != 0 {
		t.Fatalf("unsorted Reduce = %v, want empty", got)
	}
}

func TestEquivalent(t *testing.T) {
	a := []Action{
		mkAction(Add, 1, "l", 2, 10),
		mkAction(Remove, 1, "l", 2, 20),
		mkAction(Add, 1, "l", 2, 30),
	}
	b := []Action{mkAction(Add, 1, "l", 2, 99)}
	if !Equivalent(a, b) {
		t.Error("a and b should be equivalent (same net effect)")
	}
	c := []Action{mkAction(Remove, 1, "l", 2, 99)}
	if Equivalent(a, c) {
		t.Error("a and c must differ")
	}
	if !Equivalent(nil, nil) {
		t.Error("empty sets are equivalent")
	}
	d := []Action{mkAction(Add, 1, "l", 3, 1)}
	if Equivalent(b, d) {
		t.Error("different edges are not equivalent")
	}
}

func TestNetEffect(t *testing.T) {
	as := []Action{
		mkAction(Add, 1, "l", 2, 10),
		mkAction(Remove, 1, "m", 3, 20),
		mkAction(Add, 1, "n", 4, 30),
		mkAction(Remove, 1, "n", 4, 40),
	}
	eff := NetEffect(as)
	if len(eff) != 2 {
		t.Fatalf("NetEffect = %v", eff)
	}
	if eff[Edge{1, "l", 2}] != Add {
		t.Error("l edge should be net Add")
	}
	if eff[Edge{1, "m", 3}] != Remove {
		t.Error("m edge should be net Remove")
	}
}

func TestSortByTimeStable(t *testing.T) {
	as := []Action{
		mkAction(Add, 1, "a", 2, 10),
		mkAction(Add, 1, "b", 2, 10),
		mkAction(Add, 1, "c", 2, 5),
	}
	SortByTime(as)
	if as[0].Edge.Label != "c" || as[1].Edge.Label != "a" || as[2].Edge.Label != "b" {
		t.Fatalf("SortByTime = %v", as)
	}
}

func TestTableMarksReducedRows(t *testing.T) {
	tax := taxonomy.New()
	tax.AddChain("Person", "Athlete", "FootballPlayer")
	tax.AddChain("Organisation", "FootballClub")
	reg := taxonomy.NewRegistry(tax)
	neymar := reg.MustAdd("Neymar", "FootballPlayer")
	barca := reg.MustAdd("Barcelona F.C.", "FootballClub")
	psg := reg.MustAdd("PSG F.C.", "FootballClub")

	as := []Action{
		mkAction(Add, neymar, "current_club", psg, 30),      // survives
		mkAction(Remove, neymar, "current_club", barca, 10), /* survives */
		mkAction(Add, neymar, "current_club", barca, 20),    // cancels the remove? no: remove(10) then add(20) => net zero for barca edge
	}
	rows := Table(as, reg)
	if len(rows) != 3 {
		t.Fatalf("Table rows = %d", len(rows))
	}
	// Row 1 (t=10, remove barca) and row 2 (t=20, add barca) cancel; row 3
	// (t=30, add psg) survives.
	if rows[0].R != 0 || rows[1].R != 0 {
		t.Errorf("barca rows should have R=0: %+v %+v", rows[0], rows[1])
	}
	if rows[2].R != 1 {
		t.Errorf("psg row should have R=1: %+v", rows[2])
	}
	if rows[0].Subject != "Neymar" || rows[0].Object != "Barcelona F.C." {
		t.Errorf("row names: %+v", rows[0])
	}
	text := FormatTable(rows)
	if len(text) == 0 {
		t.Error("FormatTable should render something")
	}
}

func TestTruncate(t *testing.T) {
	if got := truncate("abcdef", 4); got != "a..." {
		t.Errorf("truncate = %q", got)
	}
	if got := truncate("ab", 4); got != "ab" {
		t.Errorf("truncate short = %q", got)
	}
	if got := truncate("abcdef", 3); got != "abc" {
		t.Errorf("truncate tiny = %q", got)
	}
}

// Property: Reduce is idempotent — reducing a reduced set changes nothing.
func TestReduceIdempotentProperty(t *testing.T) {
	rng := newTestRand(42)
	for trial := 0; trial < 200; trial++ {
		as := randomActions(rng, 30)
		r1 := Reduce(as)
		r2 := Reduce(r1)
		if !Equivalent(r1, r2) || len(r1) != len(r2) {
			t.Fatalf("Reduce not idempotent: %v vs %v", r1, r2)
		}
	}
}

// Applying a raw log and its reduction from the same start state must
// leave the same edge set (the definition of reduction). The log holds a
// reverted edit, a replaced link and a duplicate addition.
func TestApplyReducedEqualsApplyRaw(t *testing.T) {
	raw := []Action{
		mkAction(Add, 0, "current_club", 1, 1),
		mkAction(Remove, 0, "current_club", 1, 2),
		mkAction(Add, 0, "current_club", 2, 3),
		mkAction(Add, 2, "squad", 0, 4),
		mkAction(Add, 2, "squad", 0, 5),
	}
	start, want := replay(raw)
	if len(start) != 0 {
		t.Fatalf("start state of %v = %v, want empty", raw, start)
	}
	wantEdges := map[Edge]bool{
		{Src: 0, Label: "current_club", Dst: 2}: true,
		{Src: 2, Label: "squad", Dst: 0}:        true,
	}
	if !maps.Equal(want, wantEdges) {
		t.Fatalf("replaying %v leaves %v, want %v", raw, want, wantEdges)
	}
	got := maps.Clone(start)
	for _, a := range Reduce(raw) {
		apply(got, a)
	}
	if !maps.Equal(got, want) {
		t.Fatalf("raw %v leaves %v, reduced %v leaves %v", raw, want, Reduce(raw), got)
	}
}

// Property: Reduce(as) has the effect of as. The oracle is replay, which
// does not call Reduce: from the start state the log implies, applying
// Reduce(as) must leave the edge set that replaying as leaves, touching
// each edge at most once.
func TestReducePreservesEffectProperty(t *testing.T) {
	rng := newTestRand(7)
	for trial := 0; trial < 200; trial++ {
		as := randomActions(rng, 40)
		start, want := replay(as)
		got := maps.Clone(start)
		touched := map[Edge]bool{}
		for _, a := range Reduce(as) {
			if touched[a.Edge] {
				t.Fatalf("Reduce(%v) touches %v twice", as, a.Edge)
			}
			touched[a.Edge] = true
			apply(got, a)
		}
		if !maps.Equal(got, want) {
			t.Fatalf("Reduce(%v) = %v leaves %v, replaying the log leaves %v", as, Reduce(as), got, want)
		}
	}
}

// replay applies a log the way the paper defines it, without Reduce: in
// timestamp order (stable, so equal timestamps keep log order), from the
// start state in which an edge is present exactly when its first operation
// removes it. It returns that start state and the final edge set.
func replay(as []Action) (start, end map[Edge]bool) {
	sorted := slices.Clone(as)
	slices.SortStableFunc(sorted, func(a, b Action) int { return cmp.Compare(a.T, b.T) })
	start = map[Edge]bool{}
	seen := map[Edge]bool{}
	for _, a := range sorted {
		if !seen[a.Edge] {
			seen[a.Edge] = true
			if a.Op == Remove {
				start[a.Edge] = true
			}
		}
	}
	end = maps.Clone(start)
	for _, a := range sorted {
		apply(end, a)
	}
	return start, end
}

// apply adds or removes a's edge; edges form a set, so a repeated
// operation changes nothing.
func apply(edges map[Edge]bool, a Action) {
	if a.Op == Add {
		edges[a.Edge] = true
	} else {
		delete(edges, a.Edge)
	}
}

// Property: Reduce never emits two actions on the same edge.
func TestReduceUniqueEdgesProperty(t *testing.T) {
	rng := newTestRand(99)
	for trial := 0; trial < 200; trial++ {
		as := randomActions(rng, 40)
		seen := map[Edge]bool{}
		for _, a := range Reduce(as) {
			if seen[a.Edge] {
				t.Fatalf("duplicate edge in reduced set: %v", a.Edge)
			}
			seen[a.Edge] = true
		}
	}
}

// Small deterministic PRNG (xorshift) so tests need no external seeds.
type testRand struct{ s uint64 }

func newTestRand(seed uint64) *testRand { return &testRand{s: seed*2685821657736338717 + 1} }

func (r *testRand) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func (r *testRand) intn(n int) int { return int(r.next() % uint64(n)) }

func randomActions(r *testRand, n int) []Action {
	labels := []Label{"current_club", "squad", "in_league"}
	out := make([]Action, 0, n)
	for i := 0; i < n; i++ {
		op := Add
		if r.intn(2) == 0 {
			op = Remove
		}
		out = append(out, Action{
			Op: op,
			Edge: Edge{
				Src:   taxonomy.EntityID(r.intn(4)),
				Label: labels[r.intn(len(labels))],
				Dst:   taxonomy.EntityID(r.intn(4)),
			},
			T: Time(r.intn(1000)),
		})
	}
	return out
}
