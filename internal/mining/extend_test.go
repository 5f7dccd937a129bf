package mining

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"wiclean/internal/obs"
	"wiclean/internal/relational"
	"wiclean/internal/taxonomy"
)

// TestRejectedExtensionAllocatesNothing pins the steady-state cost of
// Algorithm 1's extension step: once a worker has joined one candidate,
// an extension that falls below τ allocates nothing. The spec reuses the
// worker's buffers, the join output goes back to the worker's arena, and
// the seed count stamps entities instead of building a set. It holds on
// both join paths, PM's index join and PM−join's nested loop, with and
// without a metrics registry attached.
func TestRejectedExtensionAllocatesNothing(t *testing.T) {
	f := newFixture(t)
	pmJoin := basicConfig()
	pmJoin.Strategy = relational.NestedLoop
	for _, variant := range []struct {
		name string
		cfg  Config
	}{{"PM", basicConfig()}, {"PM-join", pmJoin}} {
		for _, reg := range []*obs.Registry{nil, obs.NewRegistry()} {
			cfg := variant.cfg
			cfg.Obs = reg
			name := fmt.Sprintf("%s, registry attached %t", variant.name, reg != nil)
			if rejected := rejectedExtensionAllocs(t, f, cfg, name); rejected == 0 {
				t.Fatalf("%s: no below-τ extension to measure", name)
			}
		}
	}
}

// rejectedExtensionAllocs measures, on a miner over the fixture seeded
// with its frequent singletons, the allocations of every extension that
// falls below τ, reports those that allocate, and returns how many it
// measured.
func rejectedExtensionAllocs(t *testing.T, f *fixture, cfg Config, name string) int {
	t.Helper()
	m := newMiner(f.store, f.seeds, "FootballPlayer", f.window, cfg)
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
					t.Errorf("%s: %s with %v at %+v: %v allocations per rejected extension, want 0",
						name, sp.Pattern, m.templates[ti].Template, ext, allocs)
				}
			}
		}
	}
	return rejected
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

// TestTemplateIndexFollowsIngest checks that a template table that gains
// rows in a later ingest, as when a type pull brings in more entities
// whose actions abstract to an existing template, is probed with all of
// them: every extension joins to the same rows and seed count through the
// template's index as through PM−join's nested loop.
func TestTemplateIndexFollowsIngest(t *testing.T) {
	f := newFixture(t)
	var miners []*miner
	for _, strat := range []relational.Strategy{relational.HashStrategy, relational.NestedLoop} {
		cfg := basicConfig()
		cfg.Tau = 0.01 // keep every extension with a seed source
		cfg.Strategy = strat
		m := newMiner(f.store, f.seeds, "FootballPlayer", f.window, cfg)
		m.extractEntities(f.seeds[:2])
		before := make([]int, len(m.templates))
		for ti, tmpl := range m.templates {
			before[ti] = tmpl.tbl.Len()
		}
		m.extractEntities(f.seeds[2:])
		grew := false
		for ti, n := range before {
			grew = grew || m.templates[ti].tbl.Len() > n
		}
		if !grew {
			t.Fatal("the second ingest grew no indexed template")
		}
		m.seedSingletons()
		miners = append(miners, m)
	}
	rows := func(tbl *relational.Table) []relational.Row {
		if tbl == nil {
			return nil // an extension with no seed source
		}
		return tbl.Rows()
	}
	pm, nl := miners[0], miners[1]
	for i, key := range pm.order {
		sp, nsp := pm.frequent[key], nl.frequent[nl.order[i]]
		varTypes := pm.varTypeIDs(sp.Pattern)
		for ti := range pm.templates {
			for _, ext := range sp.Pattern.Extensions(pm.templates[ti].Template) {
				got, gotCount := pm.extendWith(pm.workers[0], extendJob{sp: sp, tmpl: ti, varTypes: varTypes}, ext)
				want, wantCount := nl.extendWith(nl.workers[0], extendJob{sp: nsp, tmpl: ti, varTypes: varTypes}, ext)
				if gotCount != wantCount || !reflect.DeepEqual(rows(got), rows(want)) {
					t.Errorf("%s with %v at %+v: index join %v (%d sources), nested loop %v (%d sources)",
						sp.Pattern, pm.templates[ti].Template, ext, rows(got), gotCount, rows(want), wantCount)
				}
			}
		}
	}
}
