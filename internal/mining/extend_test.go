package mining

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"wiclean/internal/relational"
	"wiclean/internal/taxonomy"
)

// TestRejectedExtensionAllocatesNothing pins the steady-state cost of
// Algorithm 1's extension step: once a worker has joined one candidate,
// an extension that falls below τ allocates nothing. The spec reuses the
// worker's buffers, the join output goes back to the worker's arena, and
// the seed count stamps entities instead of building a set.
func TestRejectedExtensionAllocatesNothing(t *testing.T) {
	f := newFixture(t)
	m := newMiner(f.store, f.seeds, "FootballPlayer", f.window, basicConfig())
	m.extractEntities(f.seeds)
	m.seedSingletons()
	if len(m.order) == 0 {
		t.Fatal("fixture mined no frequent singletons")
	}
	w := m.workers[0]
	rejected := 0
	for _, key := range m.order {
		sp := m.frequent[key]
		varTypes := m.varTypeIDs(sp.Pattern)
		for ti := range m.templates {
			job := extendJob{sp: sp, tmpl: ti, varTypes: varTypes}
			for _, ext := range sp.Pattern.Extensions(m.templates[ti].Template) {
				// The first call warms the worker up and tells a rejected
				// extension from one that clears τ.
				if tbl, _ := m.extendWith(w, job, ext); tbl != nil {
					continue
				}
				rejected++
				allocs := testing.AllocsPerRun(20, func() { m.extendWith(w, job, ext) })
				if allocs != 0 {
					t.Errorf("%s with %v at %+v: %v allocations per rejected extension, want 0",
						sp.Pattern, m.templates[ti].Template, ext, allocs)
				}
			}
		}
	}
	if rejected == 0 {
		t.Fatal("no below-τ extension to measure")
	}
	if s := w.eng.Stats; s.PlannedNested != s.Joins {
		t.Fatalf("%d of %d joins planned nested loops; the guard covers the nested-loop path", s.PlannedNested, s.Joins)
	}
}

// TestSeedCounterMatchesDistinctValues checks the stamp counter against
// the distinct-values reference on random columns with nulls, duplicates
// and non-seed IDs (some beyond the largest seed), and across a forced
// epoch wrap back onto the epoch of earlier stamps.
func TestSeedCounterMatchesDistinctValues(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var seeds []taxonomy.EntityID
	seedSet := map[relational.Value]bool{}
	for id := 0; id < 60; id++ {
		if rng.Intn(3) == 0 {
			seeds = append(seeds, taxonomy.EntityID(id))
			seedSet[relational.Value(id)] = true
		}
	}
	c := seedCounter{index: seedIndex(seeds), stamp: make([]uint32, len(seeds))}
	check := func(what string, col []relational.Value) {
		t.Helper()
		tbl := relational.NewTable("v0")
		for _, v := range col {
			tbl.Append(relational.Row{v})
		}
		want := 0
		for _, v := range tbl.DistinctValues(0) {
			if seedSet[v] {
				want++
			}
		}
		if got := c.sourceCount(tbl); got != want {
			t.Fatalf("%s (epoch %d): counter %d, distinct seed values %d", what, c.epoch, got, want)
		}
	}

	// The first count stamps its seeds with epoch 1. From the last epoch
	// the next count wraps back to 1, where those stamps must not read as
	// already counted.
	first := []relational.Value{relational.Null, 70}
	for _, s := range seeds {
		first = append(first, relational.Value(s), relational.Value(s))
	}
	check("first count", first)
	c.epoch = math.MaxUint32
	check("count after the wrap", first)
	if c.epoch != 1 {
		t.Fatalf("epoch %d after the wrap, want 1", c.epoch)
	}

	for round := 0; round < 200; round++ {
		col := make([]relational.Value, rng.Intn(40))
		for i := range col {
			col[i] = relational.Value(rng.Intn(80)) // IDs up to 79, seeds below 60
			if rng.Intn(8) == 0 {
				col[i] = relational.Null
			}
		}
		check(fmt.Sprintf("round %d", round), col)
	}
}
