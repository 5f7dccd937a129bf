package relational

import (
	"reflect"
	"testing"
)

// TestStatsAddMinusCoverEveryField closes the forgotten-field class of
// metrics-accounting bugs by reflection: every field of Stats must survive
// an Add/Minus round-trip with a distinct per-field value, so a counter
// added to the struct but left out of Add or Minus fails here instead of
// silently skewing the per-job deltas the parallel miner attributes with
// Minus.
func TestStatsAddMinusCoverEveryField(t *testing.T) {
	mk := func(base int64) Stats {
		var s Stats
		v := reflect.ValueOf(&s).Elem()
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			if f.Kind() != reflect.Int && f.Kind() != reflect.Int64 {
				t.Fatalf("Stats field %s has kind %v; extend this test for it",
					v.Type().Field(i).Name, f.Kind())
			}
			// Distinct per-field values: a transposed field pair in Add or
			// Minus cannot cancel out.
			f.SetInt(base + int64(i+1)*7)
		}
		return s
	}
	lo, hi := mk(100), mk(100000)

	d := hi.Minus(lo)
	dv := reflect.ValueOf(d)
	for i := 0; i < dv.NumField(); i++ {
		if got := dv.Field(i).Int(); got != 100000-100 {
			t.Errorf("Minus dropped or mixed up field %s: delta %d, want %d",
				dv.Type().Field(i).Name, got, 100000-100)
		}
	}

	sum := lo
	sum.Add(d)
	if sum != hi {
		t.Errorf("Add does not invert Minus:\nlo+delta = %+v\nhi       = %+v", sum, hi)
	}
}

// TestStatsMinus pins the delta arithmetic the parallel miner leans on.
func TestStatsMinus(t *testing.T) {
	after := Stats{Joins: 5, OuterJoins: 2, RowsOut: 100, Comparisons: 50}
	before := Stats{Joins: 2, OuterJoins: 1, RowsOut: 40, Comparisons: 20}
	want := Stats{Joins: 3, OuterJoins: 1, RowsOut: 60, Comparisons: 30}
	if got := after.Minus(before); got != want {
		t.Fatalf("Minus = %+v, want %+v", got, want)
	}
	var merged Stats
	merged.Add(before)
	merged.Add(after.Minus(before))
	if merged != after {
		t.Fatalf("Add(before) + Add(delta) = %+v, want %+v", merged, after)
	}
}

// TestStatsIndexProbeAccounting pins the index join's cost accounting: a
// join counts one comparison per candidate pair its index returns, the
// counts flow through Minus deltas, Join under HashStrategy accounts the
// same as IndexJoin, and a second equality filters candidates without
// adding comparisons. The nested loop counts every pair of rows.
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
	e := &Engine{}
	want := Stats{Joins: 1, RowsOut: 16, Comparisons: 16}
	before := e.Stats
	e.IndexJoin(l, r, ix, &spec)
	if d := e.Stats.Minus(before); d != want {
		t.Fatalf("IndexJoin delta = %+v, want %+v", d, want)
	}
	before = e.Stats
	e.Join(l, r, spec)
	if d := e.Stats.Minus(before); d != want {
		t.Fatalf("Join delta = %+v, want %+v", d, want)
	}

	// Two equality pairs: the second rejects every candidate of the first.
	spec2 := JoinSpec{EqL: []int{0, 1}, EqR: []int{0, 1}, LOut: []int{0}, ROut: []int{1}}
	before = e.Stats
	e.IndexJoin(l, r, ix, &spec2)
	if d, want := e.Stats.Minus(before), (Stats{Joins: 1, Comparisons: 16}); d != want {
		t.Fatalf("two-equality IndexJoin delta = %+v, want %+v", d, want)
	}

	nl := &Engine{Strategy: NestedLoop}
	nl.Join(l, r, spec)
	if want := (Stats{Joins: 1, RowsOut: 16, Comparisons: 64}); nl.Stats != want {
		t.Fatalf("nested-loop stats = %+v, want %+v", nl.Stats, want)
	}
}
