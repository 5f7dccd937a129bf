package relational

import "testing"

func tableOfSize(n int) *Table {
	t := NewTable("a")
	for i := 0; i < n; i++ {
		t.Append(Row{Value(i)})
	}
	return t
}

// TestPlannerPicksByCardinality pins the planner heuristics: tiny products
// run as nested loops, two big sorted-friendly sides as sort-merge, and
// the asymmetric middle ground as a hash join. Cross joins are always
// nested loops regardless of size.
func TestPlannerPicksByCardinality(t *testing.T) {
	eq := JoinSpec{EqL: []int{0}, EqR: []int{0}, LOut: []int{0}}
	cross := JoinSpec{LOut: []int{0}}
	cases := []struct {
		name string
		l, r int
		spec JoinSpec
		want Strategy
	}{
		{"tiny product", 64, 64, eq, NestedLoop},
		{"empty side", 0, 100000, eq, NestedLoop},
		{"asymmetric", 100, 50000, eq, HashStrategy},
		{"both large", 9000, 9000, eq, SortMerge},
		{"large cross join", 9000, 9000, cross, NestedLoop},
	}
	for _, tc := range cases {
		if got := tc.spec.plan(tableOfSize(tc.l), tableOfSize(tc.r)); got != tc.want {
			t.Errorf("%s (|l|=%d, |r|=%d): planned %s, want %s", tc.name, tc.l, tc.r, got, tc.want)
		}
	}
}

// TestAutoStrategyRecordsDecisions checks that every planned join lands in
// exactly one planner counter and that the counters stay zero when the
// strategy is forced.
func TestAutoStrategyRecordsDecisions(t *testing.T) {
	l, r := tableOfSize(10), tableOfSize(10)
	spec := JoinSpec{EqL: []int{0}, EqR: []int{0}, LOut: []int{0}}
	auto := &Engine{Strategy: AutoStrategy}
	auto.Join(l, r, spec)
	s := auto.Stats
	if s.PlannedNested+s.PlannedHash+s.PlannedSortMerge != 1 {
		t.Fatalf("one planned join, counters %+v", s)
	}
	if s.PlannedNested != 1 {
		t.Fatalf("10x10 should plan nested loop: %+v", s)
	}
	forced := &Engine{Strategy: HashStrategy}
	forced.Join(l, r, spec)
	fs := forced.Stats
	if fs.PlannedNested+fs.PlannedHash+fs.PlannedSortMerge != 0 {
		t.Fatalf("forced strategy consulted the planner: %+v", fs)
	}
}

// TestAutoStrategyWithoutObsAllocatesNothingExtra pins Engine.Obs's "nil
// costs nothing" contract on the planner path: with no registry, an
// AutoStrategy join that plans a nested loop allocates exactly as much as
// the same join forced to NestedLoop.
func TestAutoStrategyWithoutObsAllocatesNothingExtra(t *testing.T) {
	l, r := tableOfSize(3), tableOfSize(2)
	spec := JoinSpec{EqL: []int{0}, EqR: []int{0}, LOut: []int{0}}
	allocs := func(strat Strategy) float64 {
		e := &Engine{Strategy: strat}
		return testing.AllocsPerRun(100, func() { e.Join(l, r, spec) })
	}
	if auto, nested := allocs(AutoStrategy), allocs(NestedLoop); auto != nested {
		t.Fatalf("nil-Obs AutoStrategy join: %v allocations, forced NestedLoop: %v", auto, nested)
	}
}

// TestAutoStrategyString pins the new strategy's rendering.
func TestAutoStrategyString(t *testing.T) {
	if AutoStrategy.String() != "auto" {
		t.Errorf("AutoStrategy.String() = %q", AutoStrategy.String())
	}
	if Strategy(99).String() != "Strategy(99)" {
		t.Errorf("unknown strategy renders %q", Strategy(99).String())
	}
}

// TestStatsMinus pins the delta arithmetic the parallel miner leans on.
func TestStatsMinus(t *testing.T) {
	after := Stats{Joins: 5, OuterJoins: 2, RowsOut: 100, Comparisons: 50, PlannedHash: 3, PlannedSortMerge: 1, PlannedNested: 1}
	before := Stats{Joins: 2, OuterJoins: 1, RowsOut: 40, Comparisons: 20, PlannedHash: 1, PlannedSortMerge: 1}
	want := Stats{Joins: 3, OuterJoins: 1, RowsOut: 60, Comparisons: 30, PlannedHash: 2, PlannedNested: 1}
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
