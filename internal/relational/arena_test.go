package relational

import (
	"fmt"
	"reflect"
	"testing"
)

// TestArenaRecycledOutputsMatchFreshEngine runs a sequence of joins whose
// outputs vary in arity (1, 2 and 3 columns), length (0, 1 and many rows)
// and strategy, releasing the outputs so that later joins reuse recycled
// tables. Every output must equal, in columns and rows, what a fresh
// engine without an arena returns, and an output that was never released
// must come through the later joins unchanged.
func TestArenaRecycledOutputsMatchFreshEngine(t *testing.T) {
	l := NewTable("k", "a", "b")
	for i := 0; i < 40; i++ {
		l.Append(Row{Value(i % 10), Value(100 + i), Value(200 + i%7)})
	}
	// The "1 row" joins pair a two-row left side with one matching key.
	l1 := FromRows([]string{"k", "a", "b"}, []Row{{0, 100, 200}, {1, 101, 201}})
	rights := map[string]*Table{
		"0 rows":    FromRows([]string{"k", "x"}, []Row{{50, 1}, {51, 2}}),
		"1 row":     FromRows([]string{"k", "x"}, []Row{{50, 1}, {0, 103}}),
		"many rows": NewTable("k", "x"),
	}
	for i := 0; i < 25; i++ {
		rights["many rows"].Append(Row{Value(i % 12), Value(300 + i)})
	}

	specs := []JoinSpec{
		{EqL: []int{0}, EqR: []int{0}, LOut: []int{1}},
		{EqL: []int{0}, EqR: []int{0}, LOut: []int{0}, ROut: []int{1}},
		{EqL: []int{0}, EqR: []int{0}, NeqL: []int{1}, NeqR: []int{1}, LOut: []int{0, 1}, ROut: []int{1}},
	}
	type step struct {
		name  string
		strat Strategy
		l, r  *Table
		spec  JoinSpec
	}
	var steps []step
	for _, strat := range []Strategy{NestedLoop, HashStrategy} {
		for _, rows := range []string{"many rows", "0 rows", "1 row"} {
			// Arity changes on every step: 3, 1, 2, 3, 1, 2, ...
			for _, ai := range []int{2, 0, 1} {
				left := l
				if rows == "1 row" {
					left = l1
				}
				steps = append(steps, step{
					name:  fmt.Sprintf("%v/%s/arity %d", strat, rows, ai+1),
					strat: strat, l: left, r: rights[rows], spec: specs[ai],
				})
			}
		}
	}

	// One engine runs every step, so its writer scratch and its arena are
	// reused across arities and strategies. Joins run in pairs: both
	// outputs of a pair are checked after the second join, so two arena
	// tables are in use at once, and then both are released. The first
	// output is never released.
	arena := &Arena{}
	e := &Engine{Arena: arena}
	type output struct {
		name string
		got  *Table
		cols []string
		rows []Row
	}
	check := func(o output) {
		t.Helper()
		if !reflect.DeepEqual(o.got.Columns(), o.cols) || !reflect.DeepEqual(o.got.Rows(), o.rows) {
			t.Fatalf("%s: %v %v, fresh engine %v %v", o.name, o.got.Columns(), o.got.Rows(), o.cols, o.rows)
		}
	}
	var first output
	var pair []output
	for i, s := range steps {
		want := (&Engine{Strategy: s.strat}).Join(s.l, s.r, s.spec)
		e.Strategy = s.strat
		o := output{s.name, e.Join(s.l, s.r, s.spec), want.Columns(), want.Rows()}
		check(o)
		if i == 0 {
			first = o
			continue
		}
		if pair = append(pair, o); len(pair) == 2 {
			for _, p := range pair {
				check(p)
				e.Release(p.got)
			}
			pair = pair[:0]
		}
	}
	if len(first.rows) == 0 {
		t.Fatal("the unreleased output is empty; it would not show corruption")
	}
	first.name = "unreleased " + first.name
	check(first)
	if m := arena.Metrics(); m.Reuses == 0 || m.Gets <= m.Reuses {
		t.Fatalf("arena metrics %+v: want some reused columns and some fresh ones", m)
	}
}
