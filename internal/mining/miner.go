package mining

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"wiclean/internal/action"
	"wiclean/internal/intern"
	"wiclean/internal/obs"
	"wiclean/internal/obs/trace"
	"wiclean/internal/pattern"
	"wiclean/internal/relational"
	"wiclean/internal/taxonomy"
)

// miner is the per-window mining state of Algorithm 1: the
// abstract_actions[w] and realizations[w] dictionaries, the tested pairs,
// and the growing frequent-pattern store.
type miner struct {
	store    Store
	reg      *taxonomy.Registry
	tax      *taxonomy.Taxonomy
	cfg      Config
	window   action.Window
	seeds    []taxonomy.EntityID
	seedSet  map[taxonomy.EntityID]bool
	seedType taxonomy.Type

	// joinWorkers is the resolved Config.JoinWorkers; engine is the
	// single-worker engine (the pool builds one engine per worker).
	joinWorkers int
	engine      relational.Engine

	// joinJobs records the busy time of every extension job in job order —
	// the job list an LPT scheduler would distribute, mirroring
	// windows.Outcome.WindowDurations one level down.
	joinJobs []time.Duration

	// abstract_actions[w] with realizations[w][a]: template -> two-column
	// (src, dst) realization table.
	templates     map[pattern.Template]*relational.Table
	templateOrder []pattern.Template // deterministic iteration
	// templateSrc[i] is the type ID of templateOrder[i].SrcType. Templates
	// only carry taxonomy types (TemplatesOf climbs Taxonomy.Ancestors), so
	// every entry is a valid ID.
	templateSrc []int32

	// coder produces the compact canonical keys the miner-internal maps are
	// keyed on (same equivalence classes as Pattern.Canonical, a fraction of
	// the formatting cost). Every boundary that leaves the miner — Result,
	// MineRelative output, the windows seen map, saved models — still
	// renders full Canonical() strings; compact keys and the dictionary
	// behind them never escape. The Coder is serial-only and is touched only
	// on the single-threaded phases (seeding, admission, result).
	coder *pattern.Coder

	// Frequent patterns with their realization tables, keyed by compact
	// canonical form (the realization cache the paper mentions).
	frequent map[string]*ScoredPattern
	order    []string // compact canonical keys in discovery order

	// tested[w] as watermarks: the pattern at order[i] has been tested
	// against templateOrder[:swept[i]]. Both lists are append-only and a
	// sweep tests every template a pattern has not seen yet, so the tested
	// templates of a pattern are always a prefix of templateOrder.
	swept []int

	// Comparability matrix over the taxonomy's (sorted, fixed) type list:
	// cmpMat[i*nTypes+j] == tax.Comparable(types[i], types[j]). Built once
	// in newMiner and read-only afterwards, so extension jobs on worker
	// goroutines can consult it without locks instead of walking parent
	// chains per (variable, template) pair. The sweep also matches template
	// sources to pattern variables by these IDs.
	typeIDs map[taxonomy.Type]int32
	cmpMat  []bool
	nTypes  int

	// Incremental graph construction bookkeeping.
	extractedEntities map[taxonomy.EntityID]bool
	processedTypes    map[taxonomy.Type]bool

	stats Stats
	obs   *obs.Registry // nil-safe metrics sink (cfg.Obs)

	// ctx carries the run's trace span (if any) to the worker-pool batch
	// spans; it scopes observability only, never mining decisions.
	ctx context.Context
}

// Mine runs Algorithm 1 for one window: it finds the most specific
// frequent connected patterns w.r.t. seedType over the revision histories
// in store, starting from the given seed entity set S.
//
// Frequency is measured against the seed set (|S| is the denominator and
// only seed entities count as sources), matching the experimental setup of
// §6.1 where S is a sample of 100–1K entities of the seed type; pass the
// full entities(t) as seeds for the paper's Definition 3.2 verbatim.
func Mine(store Store, seeds []taxonomy.EntityID, seedType taxonomy.Type, w action.Window, cfg Config) (*Result, error) {
	return MineContext(context.Background(), store, seeds, seedType, w, cfg)
}

// MineContext is Mine under a context. When ctx carries a trace span
// (internal/obs/trace), the run records a "mining.mine" child span with
// per-phase children — preprocess, grow, and one span per worker-pool
// extension batch — and when store is a ContextStore its fetches are
// rebound to the run's context, so source-layer fetch spans join the
// same trace and cancellation reaches in-flight fetches. Tracing is
// observe-only: the mined Result is identical with or without a traced
// context.
func MineContext(ctx context.Context, store Store, seeds []taxonomy.EntityID, seedType taxonomy.Type, w action.Window, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("mining: empty seed set")
	}
	reg := store.Registry()
	if !reg.Taxonomy().Has(seedType) {
		return nil, fmt.Errorf("mining: unknown seed type %q", seedType)
	}
	ctx, tsp := trace.StartSpan(ctx, "mining.mine")
	tsp.SetAttr("seed_type", string(seedType))
	tsp.SetAttrInt("seeds", int64(len(seeds)))
	if cs, ok := store.(ContextStore); ok {
		store = cs.WithContext(ctx)
	}
	m := newMiner(store, seeds, seedType, w, cfg)
	m.ctx = ctx
	m.obs.Counter(obs.MiningRuns).Inc()
	span := m.obs.Span("mining.mine")

	pre := time.Now() //wiclean:allow-nondet Stats.Preprocessing wall time; never read by the mining output
	preSpan := span.Child("preprocess")
	_, preTrace := trace.StartSpan(ctx, "mining.preprocess") //wiclean:allow-tracectx leaf phase span; fetches keep the mine-level context so the store binding stays shared
	if cfg.Incremental {
		// Line 1: extract, reduce and abstract the seed entities' actions.
		m.extractEntities(seeds)
	} else {
		// Non-incremental variants materialize the entire window's edits
		// graph before mining (the conventional graph-mining input).
		m.extractAll()
	}
	preSpan.End()
	preTrace.End()
	m.stats.Preprocessing = time.Since(pre) //wiclean:allow-nondet Stats timing only; never read by the mining output
	if err := fetchFailure(store); err != nil {
		tsp.Fail(err)
		tsp.End()
		return nil, err
	}

	mine := time.Now() //wiclean:allow-nondet Stats.Mining wall time; never read by the mining output
	growSpan := span.Child("grow")
	gctx, growTrace := trace.StartSpan(ctx, "mining.grow")
	m.ctx = gctx // extension-batch spans nest under the grow phase
	m.seedSingletons()
	err := m.grow()
	growSpan.End()
	growTrace.Fail(err)
	growTrace.End()
	if err != nil {
		tsp.Fail(err)
		tsp.End()
		return nil, err
	}
	m.stats.Mining = time.Since(mine) //wiclean:allow-nondet Stats timing only; never read by the mining output

	tsp.SetAttrInt("frequent", int64(m.stats.FrequentFound))
	tsp.SetAttrInt("candidates", int64(m.stats.Candidates))
	tsp.End()
	m.obs.Histogram(obs.MiningSeconds, obs.DurationBuckets).
		ObserveDurationWithExemplar(span.End(), tsp.TraceIDString())
	return m.result(), nil
}

func newMiner(store Store, seeds []taxonomy.EntityID, seedType taxonomy.Type, w action.Window, cfg Config) *miner {
	m := &miner{
		store:             store,
		reg:               store.Registry(),
		tax:               store.Registry().Taxonomy(),
		cfg:               cfg,
		window:            w,
		seeds:             seeds,
		seedSet:           make(map[taxonomy.EntityID]bool, len(seeds)),
		seedType:          seedType,
		joinWorkers:       resolveJoinWorkers(cfg.JoinWorkers),
		templates:         map[pattern.Template]*relational.Table{},
		coder:             pattern.NewCoder(intern.NewDict()),
		frequent:          map[string]*ScoredPattern{},
		extractedEntities: map[taxonomy.EntityID]bool{},
		processedTypes:    map[taxonomy.Type]bool{},
		obs:               cfg.Obs,
	}
	for _, s := range seeds {
		m.seedSet[s] = true
	}
	types := m.tax.Types() // sorted — matrix layout is deterministic
	m.nTypes = len(types)
	m.typeIDs = make(map[taxonomy.Type]int32, len(types))
	for i, t := range types {
		m.typeIDs[t] = int32(i)
	}
	m.cmpMat = make([]bool, len(types)*len(types))
	for i, a := range types {
		for j, b := range types {
			if m.tax.Comparable(a, b) {
				m.cmpMat[i*m.nTypes+j] = true
			}
		}
	}
	m.engine = m.newEngine()
	m.obs.Gauge(obs.MiningJoinWorkers).Set(float64(m.joinWorkers))
	m.processedTypes[seedType] = true
	return m
}

// extractEntities implements reduced_and_abstract_actions(S, w): pull the
// revision histories of the given entities within the window, reduce them,
// and fold each surviving action's abstractions into the template tables.
func (m *miner) extractEntities(ids []taxonomy.EntityID) {
	fresh := ids[:0:0]
	for _, id := range ids {
		if !m.extractedEntities[id] {
			m.extractedEntities[id] = true
			fresh = append(fresh, id)
		}
	}
	if len(fresh) == 0 {
		return
	}
	m.obs.Counter(obs.MiningEntitiesFetched).Add(int64(len(fresh)))
	raw := m.store.ActionsOf(fresh, m.window)
	seen := map[taxonomy.EntityID]bool{}
	for _, a := range raw {
		seen[a.Edge.Src] = true
	}
	m.stats.NodesProcessed += len(seen)
	m.ingest(raw)
}

// extractAll materializes the full edits graph of the window.
func (m *miner) extractAll() {
	raw := m.store.AllActions(m.window)
	seen := map[taxonomy.EntityID]bool{}
	for _, a := range raw {
		if !seen[a.Edge.Src] {
			seen[a.Edge.Src] = true
		}
		m.extractedEntities[a.Edge.Src] = true
	}
	m.stats.NodesProcessed += len(seen)
	m.ingest(raw)
}

func (m *miner) ingest(raw []action.Action) {
	m.stats.ActionsProcessed += len(raw)
	m.obs.Counter(obs.MiningActionsIngested).Add(int64(len(raw)))
	reduced := action.Reduce(raw)
	if m.cfg.NoReduce {
		reduced = raw // ablation: mine over the unreduced log
	}
	m.stats.ReducedActions += len(reduced)
	for _, a := range reduced {
		for _, tmpl := range pattern.TemplatesOf(a, m.reg, m.cfg.MaxAbstraction) {
			tbl, ok := m.templates[tmpl]
			if !ok {
				tbl = relational.NewTable("src", "dst")
				m.templates[tmpl] = tbl
				m.templateOrder = append(m.templateOrder, tmpl)
				m.templateSrc = append(m.templateSrc, m.typeIDs[tmpl.SrcType])
			}
			tbl.Append(relational.Row{relational.Value(a.Edge.Src), relational.Value(a.Edge.Dst)})
		}
	}
}

// seedSingletons implements line 2: singleton patterns whose source type is
// comparable with the seed type and whose frequency clears the threshold.
// The incremental variants know, by construction, that only templates with
// seed-comparable sources can seed a connected pattern; the full-graph
// variants behave like conventional graph miners and evaluate every single
// edge of the materialized graph as a candidate — the §6.2 candidate gap.
func (m *miner) seedSingletons() {
	for _, tmpl := range m.templateOrder {
		if !m.tax.Comparable(tmpl.SrcType, m.seedType) {
			if !m.cfg.Incremental {
				m.stats.Candidates++ // considered, then rejected by the frequency test
			}
			continue
		}
		m.stats.Candidates++
		// Realizations of a singleton: the template pairs with distinct
		// endpoints (distinct variables take distinct entities).
		tbl := m.templates[tmpl].Select(func(r relational.Row) bool { return r[0] != r[1] })
		tbl.SetColumnName(0, pattern.VarName(0))
		tbl.SetColumnName(1, pattern.VarName(1))
		count := m.seedSourceCount(tbl)
		if m.belowTau(count) {
			m.obs.Counter(obs.MiningPatternsRejected).Inc()
			continue
		}
		m.admit(candidate{pat: tmpl.AsSingleton(), tbl: tbl.Dedup(), count: count})
	}
}

// admit stores a candidate that cleared τ unless an isomorphic pattern is
// already frequent. It reports whether the pattern was admitted.
func (m *miner) admit(c candidate) bool {
	key := m.coder.Key(c.pat)
	if _, ok := m.frequent[key]; ok {
		m.obs.Counter(obs.MiningCacheHits).Inc()
		return false // realization cache hit: already discovered
	}
	m.frequent[key] = &ScoredPattern{
		Pattern:      c.pat,
		Frequency:    m.frequency(c.count),
		SourceCount:  c.count,
		Realizations: c.tbl,
	}
	m.order = append(m.order, key)
	m.stats.FrequentFound++
	m.obs.Counter(obs.MiningPatternsAdmitted).Inc()
	m.obs.Counter(obs.MiningRealizationRows).Add(int64(c.tbl.Len()))
	return true
}

// frequency is Definition 3.2's score of a pattern whose realizations
// cover count distinct seed sources.
func (m *miner) frequency(count int) float64 {
	return float64(count) / float64(len(m.seeds))
}

// belowTau reports whether a pattern covering count distinct seed sources
// fails the frequency threshold.
func (m *miner) belowTau(count int) bool {
	return m.frequency(count) < m.cfg.Tau
}

// seedSourceCount counts the distinct seed entities in the source column —
// the SQL COUNT(DISTINCT v0) restricted to the seed set. Duplicate rows do
// not change the count, so join workers take it before Dedup.
func (m *miner) seedSourceCount(tbl *relational.Table) int {
	col := tbl.ColumnIndex(pattern.VarName(pattern.SourceVar))
	if col < 0 {
		col = 0
	}
	n := 0
	for _, v := range tbl.DistinctValues(col) {
		if m.seedSet[taxonomy.EntityID(v)] {
			n++
		}
	}
	return n
}

// grow interleaves graph expansion with pattern expansion (Algorithm 1,
// lines 4–15): pull the revision histories of newly mentioned types, sweep
// every untested (pattern, template) pair, repeat until neither step makes
// progress. Following the paper, previously tested pairs are not re-joined
// when later type pulls add realizations to a template — the incremental
// construction "refines the previously derived patterns with the newly
// added abstract actions, rather than computing frequent patterns from
// scratch". A fetch failure from a fallible store aborts the loop with
// the wrapped error: better no result than one mined over a partially
// fetched graph.
func (m *miner) grow() error {
	for {
		pulled := false
		if m.cfg.Incremental {
			pulled = m.pullNewTypes()
			if err := fetchFailure(m.store); err != nil {
				return err
			}
			if pulled {
				m.stats.TypeExpansions++
			}
		}
		admitted := m.expandOnce()
		if !admitted && !pulled {
			return nil
		}
	}
}

// pullNewTypes extracts the revision histories of every entity of each type
// newly mentioned by a frequent pattern (lines 5–8). It reports whether
// anything was pulled.
func (m *miner) pullNewTypes() bool {
	var newTypes []taxonomy.Type
	for _, key := range m.order {
		for _, t := range m.frequent[key].Pattern.TypeSet() {
			if !m.processedTypes[t] {
				m.processedTypes[t] = true
				newTypes = append(newTypes, t)
			}
		}
	}
	if len(newTypes) == 0 {
		return false
	}
	m.obs.Counter(obs.MiningTypePulls).Add(int64(len(newTypes)))
	sort.Slice(newTypes, func(i, j int) bool { return newTypes[i] < newTypes[j] })
	for _, t := range newTypes {
		m.extractType(t)
	}
	return true
}

// extractType pulls the revision histories of entities(t) — one
// incremental expansion of lines 5–8. Against a TypeStore the whole type
// comes back in a single fetch (the granularity the source layer's LRU
// cache is keyed on); actions of entities already extracted through an
// earlier, overlapping type pull are dropped so realization tables never
// double-count. Plain stores fall back to the per-entity path.
func (m *miner) extractType(t taxonomy.Type) {
	ts, ok := m.store.(TypeStore)
	if !ok {
		m.extractEntities(m.reg.EntitiesOf(t))
		return
	}
	fresh := map[taxonomy.EntityID]bool{}
	for _, id := range m.reg.EntitiesOf(t) {
		if !m.extractedEntities[id] {
			m.extractedEntities[id] = true
			fresh[id] = true
		}
	}
	if len(fresh) == 0 {
		return
	}
	m.obs.Counter(obs.MiningEntitiesFetched).Add(int64(len(fresh)))
	raw := ts.ActionsOfType(t, m.window)
	kept := raw[:0:0]
	seen := map[taxonomy.EntityID]bool{}
	for _, a := range raw {
		if !fresh[a.Edge.Src] {
			continue
		}
		kept = append(kept, a)
		seen[a.Edge.Src] = true
	}
	m.stats.NodesProcessed += len(seen)
	m.ingest(kept)
}

// expandOnce sweeps all untested (pattern, template) pairs once (lines
// 9–14), generation by generation: the current frontier's untested pairs
// are enumerated serially (advancing watermarks and counting candidates),
// the gluable ones are joined as independent jobs on the worker pool, and
// the candidates that cleared τ are merged back in job order; the patterns
// admitted by that merge form the next frontier. The generational
// structure is exactly the order the serial loop visits — new patterns are
// appended to m.order, so the old `i < len(m.order)` scan also finished a
// frontier before reaching its offspring — which is why one worker and N
// workers admit identical pattern sequences. It reports whether any new
// frequent pattern was admitted.
func (m *miner) expandOnce() bool {
	admitted := false
	for start := 0; start < len(m.order); {
		frontier := m.order[start:]
		base := start
		start = len(m.order)
		for len(m.swept) < len(m.order) {
			m.swept = append(m.swept, 0)
		}
		var jobs []extendJob
		for fi, key := range frontier {
			sp := m.frequent[key]
			if sp.Pattern.Size() >= m.cfg.MaxActions {
				continue
			}
			from := m.swept[base+fi]
			m.swept[base+fi] = len(m.templateOrder)
			// Each tested (pattern, abstract action) pair is one considered
			// candidate — the metric of the §6.2 small-data experiment. The
			// full-graph variants accumulate far more of these because
			// abstract_actions[w] holds every template in the materialized
			// graph, relevant or not.
			m.stats.Candidates += len(m.templateOrder) - from
			// Only a template whose source has the type of some pattern
			// variable has an extension (§4.2 glues the source to a
			// same-type variable); the other pairs count as candidates but
			// get no job.
			varTypes := make([]int32, len(sp.Pattern.Vars))
			for i, t := range sp.Pattern.Vars {
				id, ok := m.typeIDs[t]
				if !ok {
					id = -1 // no template source has this type
				}
				varTypes[i] = id
			}
			for ti := from; ti < len(m.templateOrder); ti++ {
				if slices.Contains(varTypes, m.templateSrc[ti]) {
					jobs = append(jobs, extendJob{sp: sp, tmpl: m.templateOrder[ti]})
				}
			}
		}
		rejected := 0
		for _, jr := range m.runExtendJobs(jobs) {
			m.stats.Join.Add(jr.stats)
			m.joinJobs = append(m.joinJobs, jr.dur)
			rejected += jr.rejected
			for _, c := range jr.cands {
				if m.admit(c) {
					admitted = true
				}
			}
		}
		m.obs.Counter(obs.MiningPatternsRejected).Add(int64(rejected))
	}
	return admitted
}

// extendWith computes realizations[w][p'] from realizations[w][p] and
// realizations[w][a] with the join query of §4.2: equijoin on glued
// variables, inequality against all collidable columns for a fresh
// variable, projection to one column per pattern variable. It scores the
// raw join output and returns the deduplicated realizations with their
// seed-source count, or a nil table when the extension falls below τ. It
// runs on the calling worker's engine and touches only frozen miner state
// (the realization and template tables of the current generation), so jobs
// need no synchronization.
func (m *miner) extendWith(eng *relational.Engine, sp *ScoredPattern, tmpl pattern.Template, ext pattern.Extension) (*relational.Table, int) {
	l := sp.Realizations
	r := m.templates[tmpl]
	spec := relational.JoinSpec{
		EqL: []int{int(ext.SrcVar)},
		EqR: []int{0},
	}
	if !ext.NewVar {
		spec.EqL = append(spec.EqL, int(ext.DstVar))
		spec.EqR = append(spec.EqR, 1)
	} else {
		// CollidableVars(m.tax, tmpl.DstType, -1) inlined over the
		// precomputed comparability matrix: same ascending variable order,
		// no parent-chain walks on the worker hot path.
		for i, vt := range sp.Pattern.Vars {
			if m.typesComparable(vt, tmpl.DstType) {
				spec.NeqL = append(spec.NeqL, i)
				spec.NeqR = append(spec.NeqR, 1)
			}
		}
	}
	for i := 0; i < l.Arity(); i++ {
		spec.LOut = append(spec.LOut, i)
	}
	if ext.NewVar {
		spec.ROut = []int{1}
	}
	joined := eng.Join(l, r, spec)
	m.obs.Counter(obs.MiningExtendJoins).Inc()
	count := m.seedSourceCount(joined)
	if m.belowTau(count) {
		eng.Release(joined)
		return nil, count
	}
	if ext.NewVar {
		joined.SetColumnName(joined.Arity()-1, pattern.VarName(ext.DstVar))
	}
	out := joined.Dedup()
	// The deduped table owns fresh columns; the join output's buffers go
	// back to the engine arena for the next job on this worker.
	eng.Release(joined)
	return out, count
}

// typesComparable is tax.Comparable answered from the precomputed matrix;
// types outside the taxonomy (never produced by templates, but possible in
// hand-built patterns) fall back to the live check.
func (m *miner) typesComparable(a, b taxonomy.Type) bool {
	ai, aok := m.typeIDs[a]
	bi, bok := m.typeIDs[b]
	if aok && bok {
		return m.cmpMat[int(ai)*m.nTypes+int(bi)]
	}
	return m.tax.Comparable(a, b)
}

func (m *miner) result() *Result {
	m.obs.Counter(obs.MiningCandidates).Add(int64(m.stats.Candidates))
	res := &Result{
		SeedType: m.seedType,
		Seeds:    m.seeds,
		SeedSize: len(m.seeds),
		Window:   m.window,
		Stats:    m.stats,
		JoinJobs: m.joinJobs,
	}
	all := make([]pattern.Pattern, 0, len(m.order))
	for _, key := range m.order {
		sp := m.frequent[key]
		res.AllFrequent = append(res.AllFrequent, *sp)
		all = append(all, sp.Pattern)
	}
	// Line 16: keep the most specific patterns.
	for _, p := range pattern.MostSpecific(all, m.tax) {
		if sp, ok := m.frequent[m.coder.Key(p)]; ok {
			res.Patterns = append(res.Patterns, *sp)
		}
	}
	sortScored(res.Patterns)
	sortScored(res.AllFrequent)
	dict := m.coder.Dict()
	m.obs.Gauge(obs.MiningDictEntries).Set(float64(dict.Len()))
	m.obs.Gauge(obs.MiningDictBytes).Set(float64(dict.Bytes()))
	m.flushArenaMetrics(&m.engine)
	return res
}

// flushArenaMetrics exports an engine arena's buffer-traffic counters. The
// pool calls it once per worker engine at batch teardown, and result() or
// mineRelativeOne calls it for the serial engine; the counters are
// cumulative per arena, so each arena must be flushed exactly once.
func (m *miner) flushArenaMetrics(eng *relational.Engine) {
	if eng.Arena == nil {
		return
	}
	am := eng.Arena.Metrics()
	m.obs.Counter(obs.RelationalArenaColumns).Add(am.Gets)
	m.obs.Counter(obs.RelationalArenaReuses).Add(am.Reuses)
}
