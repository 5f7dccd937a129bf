package relational

import (
	"runtime"
	"sort"
	"testing"
	"time"
)

// The guard join has the shape of Algorithm 1's extension joins: a pattern
// table (v0, v1, v2) glued on v1 to the src column of a template table
// (src, dst) whose dst becomes a fresh variable, unequal to v0 and v2.
const (
	guardPatternRows  = 20000
	guardTemplateRows = 2000
	guardKeys         = 512
	guardRounds       = 15

	// guardBaseline is the nested-loop/index time ratio of the match step
	// the guard measured when joins were split into a match and a build:
	// the median of ten runs on an idle 2-vCPU Intel Xeon host (nproc 2,
	// GOMAXPROCS 2), which read 96.7–106.9, nine of them below 104.
	guardBaseline = 99
)

// guardJoin builds the guard workload with the given pattern-table size
// deterministically (an LCG, so the tables never depend on math/rand's
// generator version).
func guardJoin(patternRows int) (l, r *Table, spec JoinSpec) {
	s := uint64(0x9E3779B97F4A7C15)
	next := func() Value {
		s = s*6364136223846793005 + 1442695040888963407
		return Value(int(s>>33) % guardKeys)
	}
	l = NewTable("v0", "v1", "v2")
	for i := 0; i < patternRows; i++ {
		l.Append(Row{next(), next(), next()})
	}
	r = NewTable("src", "dst")
	for i := 0; i < guardTemplateRows; i++ {
		r.Append(Row{next(), next()})
	}
	spec = JoinSpec{
		EqL: []int{1}, EqR: []int{0},
		NeqL: []int{0, 2}, NeqR: []int{1, 1},
		LOut: []int{0, 1, 2}, ROut: []int{1},
	}
	return l, r, spec
}

// measureGuard times the forced nested loop's and the index's match step
// on the guard join, each into a buffer of its own, and returns their
// median-time ratio. An untimed round grows both buffers, and a
// collection clears the set-up's garbage, so no timed round allocates or
// shares the CPU with the collector. The two are timed in interleaved
// rounds, so CPU frequency drift and background load shift both sides of
// the ratio alike, and the medians discard outliers in both directions.
func measureGuard() (ratio float64, nested, index time.Duration) {
	l, r, spec := guardJoin(guardPatternRows)
	ix := NewIndex(0)
	ix.Update(r)
	nl := &Engine{Strategy: NestedLoop}
	ij := &Engine{}
	nlPairs := nl.Match(l, r, nil, &spec, nil)
	ijPairs := ij.Match(l, r, ix, &spec, nil)
	runtime.GC()
	nls := make([]time.Duration, guardRounds)
	ijs := make([]time.Duration, guardRounds)
	for i := range nls {
		start := time.Now()
		nlPairs = nl.Match(l, r, nil, &spec, nlPairs[:0])
		nls[i] = time.Since(start)
		start = time.Now()
		ijPairs = ij.Match(l, r, ix, &spec, ijPairs[:0])
		ijs[i] = time.Since(start)
	}
	median := func(ds []time.Duration) time.Duration {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return ds[len(ds)/2]
	}
	nested, index = median(nls), median(ijs)
	return float64(nested) / float64(index), nested, index
}

// TestIndexJoinThroughputGuard is the benchmark regression guard on the
// index join: it fails if the nested-loop/index time ratio on the guard
// join, which cancels out host speed, falls more than 10% below
// guardBaseline. A failing measurement is retried (a loaded host can skew
// one draw; a real regression fails every attempt). Skipped under -short
// (it is a timing measurement, ~3 s) and under -race (instrumentation
// distorts the ratio; CI runs the guard in its own uninstrumented step).
func TestIndexJoinThroughputGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based throughput guard; skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts the join throughput ratio; CI runs the guard without -race")
	}
	var ratio float64
	for attempt := 1; attempt <= 3; attempt++ {
		var nested, index time.Duration
		ratio, nested, index = measureGuard()
		t.Logf("attempt %d: nested loop %v, index %v, ratio %.1fx (baseline %.1fx)",
			attempt, nested, index, ratio, float64(guardBaseline))
		if ratio >= 1 && ratio >= 0.9*guardBaseline {
			return
		}
	}
	t.Errorf("index join throughput regressed >10%%: nested-loop/index ratio %.1fx, baseline %.1fx",
		ratio, float64(guardBaseline))
}

// TestIndexJoinAllocatesNothing pins the steady-state cost of a join's
// match step on either path: once an engine has matched into a buffer, the
// same match into the reused buffer allocates nothing.
func TestIndexJoinAllocatesNothing(t *testing.T) {
	l, r, spec := guardJoin(200) // a short pattern table keeps the nested loop quick
	ix := NewIndex(0)
	ix.Update(r)
	for _, strat := range []Strategy{HashStrategy, NestedLoop} {
		e := &Engine{Strategy: strat}
		pairs := e.Match(l, r, ix, &spec, nil)
		if len(pairs) == 0 {
			t.Fatalf("%s match: no pairs; the guard join must match some rows", strat)
		}
		match := func() { pairs = e.Match(l, r, ix, &spec, pairs[:0]) }
		if allocs := testing.AllocsPerRun(20, match); allocs != 0 {
			t.Errorf("%s match: %v allocations, want 0", strat, allocs)
		}
	}
}
