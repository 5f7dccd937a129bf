package relational

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// genTable builds a table from quick-generated raw values.
func genTable(cols []string, vals []uint16, domain int) *Table {
	t := NewTable(cols...)
	arity := len(cols)
	for i := 0; i+arity <= len(vals); i += arity {
		row := make(Row, arity)
		for j := 0; j < arity; j++ {
			row[j] = Value(int(vals[i+j]) % domain)
		}
		t.Append(row)
	}
	return t
}

// randomTable draws a table of the given arity: up to 48 rows over a small
// value domain, with roughly one cell in eight null so null join keys and
// null inequality operands are routinely exercised.
func randomTable(rng *rand.Rand, prefix string, arity int) *Table {
	cols := make([]string, arity)
	for i := range cols {
		cols[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	t := NewTable(cols...)
	rows := rng.Intn(49)
	domain := 1 + rng.Intn(8)
	for i := 0; i < rows; i++ {
		row := make(Row, arity)
		for j := range row {
			if rng.Intn(8) == 0 {
				row[j] = Null
			} else {
				row[j] = Value(rng.Intn(domain))
			}
		}
		t.Append(row)
	}
	return t
}

// randomJoinCase draws two tables and a valid JoinSpec: 0–2 equality pairs
// (0 is a pure cross join with residual predicates), 0–2 inequalities, and
// random projections with at least one output column.
func randomJoinCase(rng *rand.Rand) (l, r *Table, spec JoinSpec) {
	l = randomTable(rng, "l", 1+rng.Intn(4))
	r = randomTable(rng, "r", 1+rng.Intn(4))
	for k, n := 0, rng.Intn(3); k < n; k++ {
		spec.EqL = append(spec.EqL, rng.Intn(l.Arity()))
		spec.EqR = append(spec.EqR, rng.Intn(r.Arity()))
	}
	for k, n := 0, rng.Intn(3); k < n; k++ {
		spec.NeqL = append(spec.NeqL, rng.Intn(l.Arity()))
		spec.NeqR = append(spec.NeqR, rng.Intn(r.Arity()))
	}
	for i := 0; i < l.Arity(); i++ {
		if rng.Intn(2) == 0 {
			spec.LOut = append(spec.LOut, i)
		}
	}
	for i := 0; i < r.Arity(); i++ {
		if rng.Intn(2) == 0 {
			spec.ROut = append(spec.ROut, i)
		}
	}
	if len(spec.LOut)+len(spec.ROut) == 0 {
		spec.LOut = []int{0}
	}
	return l, r, spec
}

// indexedInTwoUpdates copies r into a fresh table, indexing its column col
// once after the first half of the rows and once after the rest, as the
// miner's ingest indexes a template table that grows between type pulls.
func indexedInTwoUpdates(r *Table, col int) (*Table, *Index) {
	grown := NewTable(r.Columns()...)
	ix := NewIndex(col)
	rows := r.Rows()
	for _, part := range [][]Row{rows[:len(rows)/2], rows[len(rows)/2:]} {
		for _, row := range part {
			grown.Append(row)
		}
		ix.Update(grown)
	}
	return grown, ix
}

// Property: every inner-join path returns the nested loop's rows in the
// nested loop's order on random inputs — including null join keys, null
// inequality operands and pure cross joins: Join under HashStrategy, and
// IndexJoin over an index built in two updates.
func TestJoinDifferentialProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		l, r, spec := randomJoinCase(rng)
		ref := (&Engine{Strategy: NestedLoop}).Join(l, r, spec)
		fail := func(path string, got *Table) {
			t.Fatalf("case %d: %s disagrees with nested-loop\nspec %+v\nl (%d rows): %v\nr (%d rows): %v\nref %v\ngot %v",
				i, path, spec, l.Len(), l.Rows(), r.Len(), r.Rows(), ref.Rows(), got.Rows())
		}
		if got := (&Engine{}).Join(l, r, spec); !sameRows(ref, got) {
			fail("hash", got)
		}
		if len(spec.EqL) > 0 {
			grown, ix := indexedInTwoUpdates(r, spec.EqR[0])
			if got := (&Engine{}).IndexJoin(l, grown, ix, &spec); !sameRows(ref, got) {
				fail("index", got)
			}
		}
	}
}

// Property: on random inputs, Match's list holds the pairs behind Join's
// rows, in Join's order, under either strategy and whether it grows a
// fresh list or appends to one in use; FromMatches builds Join's table
// from it, and with distinct set exactly the table Dedup leaves of it.
func TestFromMatchesEqualsJoinAndDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		l, r, spec := randomJoinCase(rng)
		for _, strat := range []Strategy{HashStrategy, NestedLoop} {
			ref := (&Engine{Strategy: strat}).Join(l, r, spec)
			e := &Engine{Strategy: strat}
			prefix := []int32{7, 7}
			pairs := e.Match(l, r, nil, &spec, prefix)
			if !slices.Equal(pairs[:2], prefix) || e.Stats.RowsOut != int64(len(pairs)-2)/2 {
				t.Fatalf("case %d, %s: Match changed the list's prefix or miscounted its %d rows: %+v",
					i, strat, (len(pairs)-2)/2, e.Stats)
			}
			pairs = pairs[2:]
			if got := FromMatches(l, r, &spec, pairs, false); !sameRows(ref, got) ||
				!slices.Equal(got.Columns(), ref.Columns()) {
				t.Fatalf("case %d, %s: built %v %v, Join %v %v", i, strat, got.Columns(), got.Rows(), ref.Columns(), ref.Rows())
			}
			want := ref.Dedup()
			if got := FromMatches(l, r, &spec, pairs, true); !sameRows(want, got) ||
				!slices.Equal(got.Columns(), want.Columns()) {
				t.Fatalf("case %d, %s: distinct build %v, Dedup %v", i, strat, got.Rows(), want.Rows())
			}
		}
	}
}

// Null join keys must never match under any strategy: a row whose key
// column is entirely null contributes nothing to an equijoin.
func TestNullKeysNeverMatch(t *testing.T) {
	l := NewTable("a", "b")
	l.Append(Row{Null, 1})
	l.Append(Row{Null, 2})
	r := NewTable("c", "d")
	r.Append(Row{Null, 3})
	r.Append(Row{0, 4})
	spec := JoinSpec{EqL: []int{0}, EqR: []int{0}, LOut: []int{0, 1}, ROut: []int{1}}
	for _, strat := range []Strategy{HashStrategy, NestedLoop} {
		if out := (&Engine{Strategy: strat}).Join(l, r, spec); out.Len() != 0 {
			t.Fatalf("%s: null keys matched: %v", strat, out.Rows())
		}
	}
}

// A pure cross join (no equality columns) with residual inequalities must
// agree across strategies too — HashStrategy runs it as a nested loop.
func TestCrossJoinStrategiesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 100; i++ {
		l := randomTable(rng, "l", 2)
		r := randomTable(rng, "r", 2)
		spec := JoinSpec{NeqL: []int{0}, NeqR: []int{0}, LOut: []int{0, 1}, ROut: []int{0, 1}}
		ref := (&Engine{Strategy: NestedLoop}).Join(l, r, spec)
		if got := (&Engine{}).Join(l, r, spec); !sameRows(ref, got) {
			t.Fatalf("case %d: hash cross join disagrees: %v vs %v", i, ref.Rows(), got.Rows())
		}
	}
}

// Property: hash join and nested-loop join agree on arbitrary inputs.
func TestJoinStrategiesAgreeProperty(t *testing.T) {
	f := func(lv, rv []uint16) bool {
		l := genTable([]string{"a", "b"}, lv, 7)
		r := genTable([]string{"c", "d"}, rv, 7)
		spec := JoinSpec{
			EqL: []int{0}, EqR: []int{0},
			NeqL: []int{1}, NeqR: []int{1},
			LOut: []int{0, 1}, ROut: []int{1},
		}
		h := (&Engine{Strategy: HashStrategy}).Join(l, r, spec)
		n := (&Engine{Strategy: NestedLoop}).Join(l, r, spec)
		return sameRows(h, n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the inner join is exactly the null-free fraction of the full
// outer join restricted to matched rows — equivalently, outer ⊇ inner and
// |outer| = |inner| + |unmatched L| + |unmatched R|.
func TestOuterJoinCardinalityProperty(t *testing.T) {
	f := func(lv, rv []uint16) bool {
		l := genTable([]string{"a", "b"}, lv, 5)
		r := genTable([]string{"c", "d"}, rv, 5)
		spec := JoinSpec{
			EqL: []int{0}, EqR: []int{0},
			LOut: []int{0, 1}, ROut: []int{1},
		}
		inner := (&Engine{}).Join(l, r, spec)
		outer := (&Engine{}).FullOuterJoin(l, r, spec)
		if outer.Len() < inner.Len() {
			return false
		}
		// Every left and right row is represented at least once.
		return outer.Len() >= l.Len() || outer.Len() >= r.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Dedup is idempotent and never increases cardinality.
func TestDedupProperty(t *testing.T) {
	f := func(vals []uint16) bool {
		tb := genTable([]string{"a", "b", "c"}, vals, 3)
		d1 := tb.Dedup()
		d2 := d1.Dedup()
		return d1.Len() <= tb.Len() && d1.Len() == d2.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: DistinctCount equals the length of DistinctValues and is
// bounded by the row count.
func TestDistinctProperty(t *testing.T) {
	f := func(vals []uint16) bool {
		tb := genTable([]string{"a"}, vals, 9)
		n := tb.DistinctCount(0)
		return n == len(tb.DistinctValues(0)) && n <= tb.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: projection preserves row count and column order.
func TestProjectProperty(t *testing.T) {
	f := func(vals []uint16) bool {
		tb := genTable([]string{"a", "b", "c"}, vals, 11)
		p := tb.Project(2, 0)
		if p.Len() != tb.Len() {
			return false
		}
		for i := 0; i < tb.Len(); i++ {
			if p.Row(i)[0] != tb.Row(i)[2] || p.Row(i)[1] != tb.Row(i)[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
