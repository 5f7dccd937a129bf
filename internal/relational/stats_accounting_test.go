package relational

import (
	"reflect"
	"testing"
)

// TestStatsAddCoversEveryField closes the forgotten-field class of
// metrics-accounting bugs by reflection: every field of Stats must be
// summed by Add with a distinct per-field value, so a counter added to the
// struct but left out of Add fails here instead of silently skewing the
// join totals the parallel miner sums over its workers' engines.
func TestStatsAddCoversEveryField(t *testing.T) {
	mk := func(base int64) Stats {
		var s Stats
		v := reflect.ValueOf(&s).Elem()
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			if f.Kind() != reflect.Int && f.Kind() != reflect.Int64 {
				t.Fatalf("Stats field %s has kind %v; extend this test for it",
					v.Type().Field(i).Name, f.Kind())
			}
			// Distinct per-field values: a transposed field pair in Add
			// cannot cancel out.
			f.SetInt(base + int64(i+1)*7)
		}
		return s
	}
	sum := mk(100)
	sum.Add(mk(100000))
	sv := reflect.ValueOf(sum)
	for i := 0; i < sv.NumField(); i++ {
		want := 100 + 100000 + 2*int64(i+1)*7
		if got := sv.Field(i).Int(); got != want {
			t.Errorf("Add dropped or mixed up field %s: sum %d, want %d",
				sv.Type().Field(i).Name, got, want)
		}
	}
}

// TestStatsIndexProbeAccounting pins the index join's cost accounting on
// engine totals: a join counts one comparison per candidate pair its index
// returns, Join under HashStrategy accounts the same as IndexJoin, and a
// second equality filters candidates without adding comparisons. The
// nested loop counts every pair of rows.
func TestStatsIndexProbeAccounting(t *testing.T) {
	l := NewTable("a", "b")
	r := NewTable("x", "y")
	for i := 0; i < 8; i++ {
		l.Append(Row{Value(i % 4), Value(i)})
		r.Append(Row{Value(i % 4), Value(i + 100)})
	}
	ix := NewIndex(0)
	ix.Update(r)
	spec := JoinSpec{EqL: []int{0}, EqR: []int{0}, LOut: []int{0, 1}, ROut: []int{1}}

	// Every probe row meets 2 candidates of its key, all matches: 8*2 pairs.
	want := Stats{Joins: 1, RowsOut: 16, Comparisons: 16}
	ie := &Engine{}
	ie.IndexJoin(l, r, ix, &spec)
	if ie.Stats != want {
		t.Fatalf("IndexJoin stats = %+v, want %+v", ie.Stats, want)
	}
	je := &Engine{}
	je.Join(l, r, spec)
	if je.Stats != want {
		t.Fatalf("Join stats = %+v, want %+v", je.Stats, want)
	}

	// Two equality pairs: the second rejects every candidate of the first.
	spec2 := JoinSpec{EqL: []int{0, 1}, EqR: []int{0, 1}, LOut: []int{0}, ROut: []int{1}}
	e2 := &Engine{}
	e2.IndexJoin(l, r, ix, &spec2)
	if want := (Stats{Joins: 1, Comparisons: 16}); e2.Stats != want {
		t.Fatalf("two-equality IndexJoin stats = %+v, want %+v", e2.Stats, want)
	}

	nl := &Engine{Strategy: NestedLoop}
	nl.Join(l, r, spec)
	if want := (Stats{Joins: 1, RowsOut: 16, Comparisons: 64}); nl.Stats != want {
		t.Fatalf("nested-loop stats = %+v, want %+v", nl.Stats, want)
	}
}
