package relational

import (
	"reflect"
	"slices"
	"testing"
)

// players(p, club) and squads(club2, p2): the shape of extending a
// realization table with an abstract-action table.
func joinFixtures() (*Table, *Table) {
	l := FromRows([]string{"player", "club"}, []Row{
		{10, 100},
		{11, 100},
		{12, 101},
		{13, Null},
	})
	r := FromRows([]string{"club2", "player2"}, []Row{
		{100, 10},
		{100, 11},
		{101, 12},
		{102, 14},
	})
	return l, r
}

func TestJoinSpecValidate(t *testing.T) {
	l, r := joinFixtures()
	bad := []JoinSpec{
		{EqL: []int{0}, EqR: []int{}},    // length mismatch
		{NeqL: []int{0}, NeqR: []int{}},  // length mismatch
		{EqL: []int{5}, EqR: []int{0}},   // out of range L
		{EqL: []int{0}, EqR: []int{5}},   // out of range R
		{LOut: []int{9}},                 // out of range
		{ROut: []int{9}},                 // out of range
		{NeqL: []int{9}, NeqR: []int{0}}, // out of range
		{NeqL: []int{0}, NeqR: []int{9}}, // out of range
	}
	for i, s := range bad {
		if err := s.Validate(l, r); err == nil {
			t.Errorf("spec %d should not validate", i)
		}
	}
	good := JoinSpec{EqL: []int{1}, EqR: []int{0}, LOut: []int{0, 1}, ROut: []int{1}}
	if err := good.Validate(l, r); err != nil {
		t.Errorf("good spec rejected: %v", err)
	}
}

func TestHashJoinEquiMatch(t *testing.T) {
	l, r := joinFixtures()
	e := &Engine{Strategy: HashStrategy}
	// Join players with squad rows of the same club; keep player, club,
	// squad player.
	spec := JoinSpec{EqL: []int{1}, EqR: []int{0}, LOut: []int{0, 1}, ROut: []int{1}}
	out := e.Join(l, r, spec)
	// club 100 matches 2x2, club 101 matches 1, Null never matches: 5 rows.
	if out.Len() != 5 {
		t.Fatalf("join rows = %d, want 5\n%s", out.Len(), out)
	}
	if got := out.Columns(); !reflect.DeepEqual(got, []string{"player", "club", "player2"}) {
		t.Fatalf("out schema = %v", got)
	}
	if e.Stats.Joins != 1 || e.Stats.RowsOut != 5 {
		t.Errorf("stats = %+v", e.Stats)
	}
}

func TestJoinNullKeysNeverMatch(t *testing.T) {
	l := FromRows([]string{"a"}, []Row{{Null}})
	r := FromRows([]string{"b"}, []Row{{Null}, {1}})
	for _, strat := range []Strategy{HashStrategy, NestedLoop} {
		e := &Engine{Strategy: strat}
		out := e.Join(l, r, JoinSpec{EqL: []int{0}, EqR: []int{0}, LOut: []int{0}, ROut: []int{0}})
		if out.Len() != 0 {
			t.Errorf("%v: null keys matched: %v", strat, out)
		}
	}
}

func TestJoinInequalityResidual(t *testing.T) {
	// Fresh-variable semantics: new entity must differ from the existing
	// same-type variable.
	l := FromRows([]string{"team1"}, []Row{{100}, {101}})
	r := FromRows([]string{"player", "team2"}, []Row{
		{10, 100},
		{10, 101},
		{10, 102},
	})
	// Cross join (no Eq), require team1 != team2.
	spec := JoinSpec{NeqL: []int{0}, NeqR: []int{1}, LOut: []int{0}, ROut: []int{0, 1}}
	for _, strat := range []Strategy{HashStrategy, NestedLoop} {
		e := &Engine{Strategy: strat}
		out := e.Join(l, r, spec)
		// 2*3 pairs minus (100,100) and (101,101) = 4.
		if out.Len() != 4 {
			t.Errorf("%v: rows = %d, want 4\n%s", strat, out.Len(), out)
		}
		for _, row := range out.Rows() {
			if row[0] == row[2] {
				t.Errorf("%v: inequality violated: %v", strat, row)
			}
		}
	}
}

func TestNeqWithNullPasses(t *testing.T) {
	l := FromRows([]string{"a"}, []Row{{Null}})
	r := FromRows([]string{"b"}, []Row{{5}})
	e := &Engine{}
	out := e.Join(l, r, JoinSpec{NeqL: []int{0}, NeqR: []int{0}, LOut: []int{0}, ROut: []int{0}})
	if out.Len() != 1 {
		t.Fatalf("null inequality should pass: %v", out)
	}
}

func TestHashAndNestedLoopAgree(t *testing.T) {
	// Property: both strategies produce the same rows in the same order on
	// randomized inputs.
	rng := uint64(12345)
	next := func(n int) Value {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return Value(rng % uint64(n))
	}
	for trial := 0; trial < 50; trial++ {
		l := NewTable("a", "b")
		r := NewTable("c", "d")
		for i := 0; i < 20; i++ {
			l.Append(Row{next(5), next(5)})
			r.Append(Row{next(5), next(5)})
		}
		spec := JoinSpec{
			EqL: []int{0}, EqR: []int{0},
			NeqL: []int{1}, NeqR: []int{1},
			LOut: []int{0, 1}, ROut: []int{1},
		}
		h := (&Engine{Strategy: HashStrategy}).Join(l, r, spec)
		n := (&Engine{Strategy: NestedLoop}).Join(l, r, spec)
		if !sameRows(h, n) {
			t.Fatalf("trial %d: hash %v != nested %v", trial, h, n)
		}
	}
}

func TestJoinBuildSideSymmetry(t *testing.T) {
	// The index covers the right side, small or big; swapping the sides
	// must not change how many rows match.
	small := FromRows([]string{"a"}, []Row{{1}, {2}})
	big := NewTable("b")
	for i := 0; i < 10; i++ {
		big.Append(Row{Value(i % 3)})
	}
	spec := JoinSpec{EqL: []int{0}, EqR: []int{0}, LOut: []int{0}, ROut: []int{0}}
	e := &Engine{}
	out1 := e.Join(small, big, spec)
	spec2 := JoinSpec{EqL: []int{0}, EqR: []int{0}, LOut: []int{0}, ROut: []int{0}}
	out2 := e.Join(big, small, spec2)
	if out1.Len() != out2.Len() {
		t.Fatalf("asymmetric join: %d vs %d", out1.Len(), out2.Len())
	}
}

func TestCrossJoinNoEq(t *testing.T) {
	l := FromRows([]string{"a"}, []Row{{1}, {2}})
	r := FromRows([]string{"b"}, []Row{{3}, {4}, {5}})
	e := &Engine{}
	out := e.Join(l, r, JoinSpec{LOut: []int{0}, ROut: []int{0}})
	if out.Len() != 6 {
		t.Fatalf("cross join rows = %d", out.Len())
	}
}

func TestFullOuterJoinPadsAndCoalesces(t *testing.T) {
	// players who joined a club vs clubs who added the player: the §5
	// partial-edit shape. Each side carries a presence-marker column (the
	// paper's "result table keeping the attributes of original action
	// relations") so that unmatched rows surface nulls even when every
	// variable column is a shared join key.
	joined := FromRows([]string{"player", "club", "m1"}, []Row{
		{10, 100, 1}, // complete: club added them too
		{11, 100, 1}, // partial: club did not add
	})
	added := FromRows([]string{"club", "player", "m2"}, []Row{
		{100, 10, 1},
		{101, 12, 1}, // partial: player page not updated
	})
	e := &Engine{}
	spec := JoinSpec{
		EqL: []int{0, 1}, EqR: []int{1, 0},
		LOut: []int{0, 1, 2}, ROut: []int{2},
	}
	out := e.FullOuterJoin(joined, added, spec)
	if out.Len() != 3 {
		t.Fatalf("outer join rows = %d, want 3\n%s", out.Len(), out)
	}
	var full, partial int
	for _, row := range out.Rows() {
		if slices.Contains(row, Null) {
			partial++
		} else {
			full++
		}
	}
	if full != 1 || partial != 2 {
		t.Fatalf("full=%d partial=%d\n%s", full, partial, out)
	}
	// Coalescing: the unmatched r row (club 101, player 12) must surface
	// its key values in the l variable columns — only its m1 marker is
	// null, telling the detector which action is missing.
	found := false
	for _, row := range out.Rows() {
		if row[0] == 12 && row[1] == 101 {
			found = true
			if !row[2].IsNull() || row[3] != 1 {
				t.Fatalf("markers wrong for unmatched right row: %v", row)
			}
		}
	}
	if !found {
		t.Fatalf("unmatched right row not coalesced:\n%s", out)
	}
	if e.Stats.OuterJoins != 1 {
		t.Errorf("stats = %+v", e.Stats)
	}
}

func TestFullOuterJoinNewColumnNullPadded(t *testing.T) {
	l := FromRows([]string{"p"}, []Row{{1}, {2}})
	r := FromRows([]string{"p", "extra"}, []Row{{1, 50}})
	e := &Engine{}
	spec := JoinSpec{EqL: []int{0}, EqR: []int{0}, LOut: []int{0}, ROut: []int{1}}
	out := e.FullOuterJoin(l, r, spec)
	if out.Len() != 2 {
		t.Fatalf("rows = %d\n%s", out.Len(), out)
	}
	var sawNullExtra bool
	for _, row := range out.Rows() {
		if row[0] == 2 {
			if !row[1].IsNull() {
				t.Fatalf("unmatched l row should null-pad extra: %v", row)
			}
			sawNullExtra = true
		}
		if row[0] == 1 && row[1] != 50 {
			t.Fatalf("matched row wrong: %v", row)
		}
	}
	if !sawNullExtra {
		t.Fatal("missing unmatched l row")
	}
}

func TestFullOuterJoinRespectsInequality(t *testing.T) {
	l := FromRows([]string{"a", "x"}, []Row{{1, 7}})
	r := FromRows([]string{"a", "y"}, []Row{{1, 7}})
	e := &Engine{}
	spec := JoinSpec{
		EqL: []int{0}, EqR: []int{0},
		NeqL: []int{1}, NeqR: []int{1},
		LOut: []int{0, 1}, ROut: []int{1},
	}
	out := e.FullOuterJoin(l, r, spec)
	// The only candidate pair violates x != y, so both rows surface
	// unmatched: 2 rows, both with nulls.
	if out.Len() != 2 {
		t.Fatalf("rows = %d\n%s", out.Len(), out)
	}
	for _, row := range out.Rows() {
		if !slices.Contains(row, Null) {
			t.Fatalf("expected partial rows only: %v", row)
		}
	}
}

func TestFullOuterJoinEmptySides(t *testing.T) {
	l := FromRows([]string{"a"}, []Row{{1}})
	empty := NewTable("a")
	e := &Engine{}
	spec := JoinSpec{EqL: []int{0}, EqR: []int{0}, LOut: []int{0}, ROut: []int{0}}
	out := e.FullOuterJoin(l, empty, spec)
	if out.Len() != 1 {
		t.Fatalf("left-only outer join = %v", out)
	}
	// The r output column is a shared join key, so it is coalesced from l
	// rather than null-padded.
	if out.Row(0)[1] != 1 {
		t.Fatalf("coalesced key missing on left-only side: %v", out.Row(0))
	}
	out = e.FullOuterJoin(empty, l, spec)
	if out.Len() != 1 {
		t.Fatalf("right-only outer join = %v", out)
	}
	// Coalescing fills the l key column from r, so the row has no null in
	// col 0 but the schema arity is 2 here (LOut + ROut).
	if out.Row(0)[0] != 1 {
		t.Fatalf("coalesced key missing: %v", out.Row(0))
	}
}

func TestJoinInvalidSpecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid spec should panic")
		}
	}()
	e := &Engine{}
	e.Join(NewTable("a"), NewTable("b"), JoinSpec{EqL: []int{3}, EqR: []int{0}})
}

func TestStatsAddAndStrategyString(t *testing.T) {
	var s Stats
	s.Add(Stats{Joins: 1, OuterJoins: 2, RowsOut: 3, Comparisons: 4})
	s.Add(Stats{Joins: 1})
	if s.Joins != 2 || s.OuterJoins != 2 || s.RowsOut != 3 || s.Comparisons != 4 {
		t.Errorf("Stats.Add = %+v", s)
	}
	if HashStrategy.String() != "hash" || NestedLoop.String() != "nested-loop" {
		t.Error("Strategy strings")
	}
	if Strategy(9).String() == "" {
		t.Error("unknown strategy should render")
	}
}

// TestIndexJoinMultiKeyAndCross: an index over the first equality column
// serves a two-key join, the second key filtering its candidates, and
// HashStrategy runs a join without equalities as a cross product.
func TestIndexJoinMultiKeyAndCross(t *testing.T) {
	l := FromRows([]string{"a", "b"}, []Row{{1, 2}, {1, 3}, {2, 2}})
	r := FromRows([]string{"a", "b"}, []Row{{1, 2}, {2, 2}, {2, 9}})
	spec := JoinSpec{EqL: []int{0, 1}, EqR: []int{0, 1}, LOut: []int{0, 1}}
	ix := NewIndex(0)
	ix.Update(r)
	e := &Engine{}
	out := e.IndexJoin(l, r, ix, &spec)
	if want := []Row{{1, 2}, {2, 2}}; !reflect.DeepEqual(out.Rows(), want) {
		t.Fatalf("multi-key index join = %v, want %v", out.Rows(), want)
	}
	if got := e.Join(l, r, spec); !sameRows(got, out) {
		t.Fatalf("multi-key Join = %v, IndexJoin %v", got.Rows(), out.Rows())
	}
	// No Eq columns: falls back to the cross path.
	cross := e.Join(l, r, JoinSpec{LOut: []int{0}, ROut: []int{0}})
	if cross.Len() != 9 {
		t.Fatalf("cross fallback = %d rows", cross.Len())
	}
}

// sameRows reports whether a and b hold the same rows in the same order.
func sameRows(a, b *Table) bool {
	return reflect.DeepEqual(a.Rows(), b.Rows())
}

// TestIndexJoinOverPrefixView checks that joining through a prefix view of
// an indexed table matches, rows, order and comparisons, a join against a
// copy of those rows with an index of its own, at every prefix length;
// and that truncating a table and its index and appending other rows
// gives what indexing the new rows from scratch gives.
func TestIndexJoinOverPrefixView(t *testing.T) {
	l := FromRows([]string{"p", "c"}, []Row{{1, 10}, {2, 11}, {3, 10}, {4, Null}})
	r := FromRows([]string{"c", "q"}, []Row{{10, 1}, {11, 5}, {10, 6}, {12, 7}, {10, 8}, {11, 2}})
	spec := JoinSpec{EqL: []int{1}, EqR: []int{0}, NeqL: []int{0}, NeqR: []int{1}, LOut: []int{0, 1}, ROut: []int{1}}
	ix := NewIndex(0)
	ix.Update(r)
	var view Table
	for n := 0; n <= r.Len(); n++ {
		want := FromRows(r.Columns(), r.Rows()[:n])
		wix := NewIndex(0)
		wix.Update(want)
		ew, ev := &Engine{}, &Engine{}
		got := ev.IndexJoin(l, r.PrefixView(&view, n), ix, &spec)
		if exp := ew.IndexJoin(l, want, wix, &spec); !sameRows(got, exp) || ev.Stats != ew.Stats {
			t.Fatalf("prefix %d: %v with %+v, want %v with %+v", n, got.Rows(), ev.Stats, exp.Rows(), ew.Stats)
		}
		if nl := (&Engine{Strategy: NestedLoop}).Join(l, &view, spec); !sameRows(nl, got) {
			t.Fatalf("prefix %d: nested loop %v, index join %v", n, nl.Rows(), got.Rows())
		}
	}

	r.Truncate(2)
	ix.Truncate(2)
	r.Append(Row{12, 9})
	r.Append(Row{10, 3})
	ix.Update(r)
	fresh := NewIndex(0)
	fresh.Update(FromRows(r.Columns(), r.Rows()))
	if !reflect.DeepEqual(ix.rows, fresh.rows) || ix.n != fresh.n {
		t.Fatalf("truncated index %v (%d rows), fresh %v (%d)", ix.rows, ix.n, fresh.rows, fresh.n)
	}
	if want := []Row{{10, 1}, {11, 5}, {12, 9}, {10, 3}}; !reflect.DeepEqual(r.Rows(), want) {
		t.Fatalf("truncated table %v, want %v", r.Rows(), want)
	}
}
