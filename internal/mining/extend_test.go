package mining

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"wiclean/internal/action"
	"wiclean/internal/dump"
	"wiclean/internal/obs"
	"wiclean/internal/relational"
	"wiclean/internal/taxonomy"
)

// TestRejectedExtensionAllocatesNothing pins the steady-state cost of
// Algorithm 1's extension step: once a worker has joined one candidate,
// an extension that falls below τ allocates nothing. The spec and the
// match list reuse the worker's buffers, no table is written, and the
// seed count stamps entities instead of building a set. It holds on both
// join paths, PM's index join and PM−join's nested loop, with and without
// a metrics registry attached.
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
			for _, ext := range sp.Pattern.AppendExtensions(nil, m.templates[ti].Template) {
				// The first call warms the worker up and tells a rejected
				// extension from one that clears τ.
				if !m.belowTau(m.extendWith(w, job, ext)) {
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

// TestRejectedJobAllocatesNothing pins the same contract for a whole
// extension job, outside a session that remembers: once the worker is
// warm, a job whose every extension falls below τ allocates nothing. Its
// extensions are enumerated into the worker's buffer.
func TestRejectedJobAllocatesNothing(t *testing.T) {
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
			m := newMiner(f.store, f.seeds, "FootballPlayer", f.window, cfg)
			m.extractEntities(f.seeds)
			m.seedSingletons()
			w := m.workers[0]
			rejected := 0
			for _, key := range m.order {
				sp := m.frequent[key]
				varTypes := m.varTypeIDs(sp.Pattern)
				for ti := range m.templates {
					job := extendJob{sp: sp, tmpl: ti, varTypes: varTypes}
					// The first run warms the worker up and tells a job
					// with only rejected extensions.
					if res := m.runJob(w, job, jobResult{}); res.rejected == 0 || len(res.cands) > 0 {
						continue
					}
					rejected++
					allocs := testing.AllocsPerRun(20, func() { m.runJob(w, job, jobResult{}) })
					if allocs != 0 {
						t.Errorf("%s: %s with %v: %v allocations per rejected job, want 0",
							name, sp.Pattern, m.templates[ti].Template, allocs)
					}
				}
			}
			if rejected == 0 {
				t.Fatalf("%s: no rejected job to measure", name)
			}
		}
	}
}

// TestCacheHitAllocatesNoRealization pins where an extension's
// realization table is built: in admit, after the realization-cache
// check, so a cache hit builds none. On a miner that has mined its window
// to the end, every extension that clears τ is a cache hit. The test runs
// and merges the job with the longest match list among those extensions
// twice: as a hit, and as a miss once that extension's class is taken out
// of the frequent set. The miss must allocate at least the table's
// columns more than the hit. Building a table for every extension that
// clears τ, in admit or on the join worker, would cost the hit as much as
// the miss. The world is 2,000 players who each join a club of their own
// and enter its squad, so the transfer pattern's table (16 KB of columns)
// outweighs everything else an admission allocates.
func TestCacheHitAllocatesNoRealization(t *testing.T) {
	x := taxonomy.New()
	x.AddChain("Agent", "Person", "Athlete", "FootballPlayer")
	x.AddChain("Agent", "Organisation", "SportsTeam", "FootballClub")
	reg := taxonomy.NewRegistry(x)
	store := dump.NewHistory(reg)
	var seeds []taxonomy.EntityID
	for i := 0; i < 2000; i++ {
		p, c := reg.MustAdd(fmt.Sprintf("P%d", i), "FootballPlayer"), reg.MustAdd(fmt.Sprintf("C%d", i), "FootballClub")
		seeds = append(seeds, p)
		store.AddActions(
			action.Action{Op: action.Add, Edge: action.Edge{Src: p, Label: "current_club", Dst: c}, T: 10},
			action.Action{Op: action.Add, Edge: action.Edge{Src: c, Label: "squad", Dst: p}, T: 11},
		)
	}
	cfg := PM(0.5)
	cfg.MaxAbstraction = 0
	cfg.JoinWorkers = 1
	m := newMiner(store, seeds, "FootballPlayer", action.Window{Start: 0, End: 100}, cfg)
	m.ctx = context.Background()
	m.preprocess()
	m.seedSingletons()
	if err := m.grow(); err != nil {
		t.Fatal(err)
	}
	wk := m.workers[0]
	var job extendJob
	var hit candidate
	for _, key := range m.order {
		sp := m.frequent[key]
		if sp.Pattern.Size() >= cfg.MaxActions {
			continue
		}
		varTypes := m.varTypeIDs(sp.Pattern)
		for ti := range m.templates {
			if !slices.Contains(varTypes, m.templates[ti].src) {
				continue
			}
			j := extendJob{sp: sp, tmpl: ti, varTypes: varTypes}
			for _, c := range m.runJob(wk, j, jobResult{}).cands {
				if c.cleared() && len(c.pairs) > len(hit.pairs) {
					job, hit = j, c
				}
			}
		}
	}
	key, _ := m.coder.Key(hit.pat)
	if m.frequent[key] == nil {
		t.Fatal("no extension that clears τ is a cache hit")
	}
	m.order = slices.Grow(m.order, 1) // the miss's admission appends no new backing array
	merged := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := m.runJob(wk, job, jobResult{})
		m.merge([]extendJob{job}, []jobResult{res})
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	merged() // the worker's buffers have grown to this job
	hitBytes := merged()
	delete(m.frequent, key)
	missBytes := merged()
	sp := m.frequent[key]
	if sp == nil {
		t.Fatal("the miss was not admitted")
	}
	tblBytes := uint64(sp.Realizations.Len() * sp.Realizations.Arity() * 4)
	t.Logf("%s: %d pairs, %d×%d table of %d bytes; hit %d bytes, miss %d bytes",
		sp.Pattern, len(hit.pairs)/2, sp.Realizations.Len(), sp.Realizations.Arity(), tblBytes, hitBytes, missBytes)
	if missBytes < hitBytes+tblBytes {
		t.Errorf("a cache hit allocated %d bytes and a miss %d: the hit built a table (the miss's takes %d bytes)",
			hitBytes, missBytes, tblBytes)
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

// TestTemplateIndexFollowsIngest checks that a template table that gains
// rows in a later ingest, as when a type pull brings in more entities
// whose actions abstract to an existing template, is probed with all of
// them: every extension matches the same pairs to the same seed count
// through the template's index as through PM−join's nested loop, and an
// extension that clears τ builds the same realization table from them.
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
	pm, nl := miners[0], miners[1]
	cleared := 0
	for i, key := range pm.order {
		sp, nsp := pm.frequent[key], nl.frequent[nl.order[i]]
		varTypes := pm.varTypeIDs(sp.Pattern)
		for ti := range pm.templates {
			for _, ext := range sp.Pattern.AppendExtensions(nil, pm.templates[ti].Template) {
				job, njob := extendJob{sp: sp, tmpl: ti, varTypes: varTypes}, extendJob{sp: nsp, tmpl: ti, varTypes: varTypes}
				gotCount := pm.extendWith(pm.workers[0], job, ext)
				wantCount := nl.extendWith(nl.workers[0], njob, ext)
				got, want := pm.workers[0].pairs, nl.workers[0].pairs
				if gotCount != wantCount || !slices.Equal(got, want) {
					t.Errorf("%s with %v at %+v: index join matched %v (%d sources), nested loop %v (%d sources)",
						sp.Pattern, pm.templates[ti].Template, ext, got, gotCount, want, wantCount)
					continue
				}
				if pm.belowTau(gotCount) {
					continue
				}
				cleared++
				gotTbl := pm.realize(job, candidate{pairs: got, ext: ext})
				wantTbl := nl.realize(njob, candidate{pairs: want, ext: ext})
				if !reflect.DeepEqual(gotTbl.Rows(), wantTbl.Rows()) {
					t.Errorf("%s with %v at %+v: index join built %v, nested loop %v",
						sp.Pattern, pm.templates[ti].Template, ext, gotTbl.Rows(), wantTbl.Rows())
				}
			}
		}
	}
	if cleared == 0 {
		t.Fatal("no extension cleared τ; the tables went unchecked")
	}
}
