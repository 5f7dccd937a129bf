package mining

import (
	"context"
	"slices"
	"sort"

	"wiclean/internal/action"
	"wiclean/internal/obs"
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
	seedType taxonomy.Type

	// joinWorkers is the resolved Config.JoinWorkers, and workers holds
	// that many join workers for the miner's lifetime. The serial path
	// (one worker) and the single-threaded phases run on workers[0].
	joinWorkers int
	workers     []*worker

	// abstract_actions[w] with realizations[w][a], in first-seen order
	// (the deterministic iteration order). Sweep watermarks and jobs index
	// this append-only slice; templateIdx finds a template's entry at
	// ingest.
	templates   []abstractAction
	templateIdx map[pattern.Template]int

	// coder keys patterns by their canonical form (Pattern.Canonical) and
	// builds the canonical variant each is stored as. It is serial-only
	// and is touched only on the single-threaded phases (seeding,
	// admission, keying a relative run's base).
	coder pattern.Coder

	// Frequent patterns with their realization tables, keyed by canonical
	// form (the realization cache the paper mentions).
	frequent map[string]*ScoredPattern
	order    []string // canonical forms in discovery order

	// tested[w] as watermarks: the pattern at order[i] has been tested
	// against templates[:swept[i]]. Both lists are append-only and a sweep
	// tests every template a pattern has not seen yet, so the tested
	// templates of a pattern are always a prefix of templates.
	swept []int

	// The sweep's generation buffers, reused across generations and
	// calls: a generation's jobs in merge order, their results by job
	// index, and the recalled results waiting for their job's place.
	jobs     []extendJob
	results  []jobResult
	recalled []recalledJob

	// Comparability matrix over the taxonomy's (sorted, fixed) type list:
	// cmpMat[i*nTypes+j] == tax.Comparable(types[i], types[j]). Built once
	// in newMiner and read-only afterwards, so extension jobs on worker
	// goroutines can consult it without locks instead of walking parent
	// chains per (variable, template) pair. The sweep also matches template
	// sources to pattern variables by these IDs, and extensions take their
	// collidable variables from it.
	typeIDs map[taxonomy.Type]int32
	cmpMat  []bool
	nTypes  int

	// Incremental graph construction bookkeeping: the entities extracted,
	// in extraction order and as a set, and the types the current call
	// has pulled.
	extracted         []taxonomy.EntityID
	extractedEntities map[taxonomy.EntityID]bool
	processedTypes    map[taxonomy.Type]bool

	// log records the graph construction in epochs: the first extraction,
	// then one type pull each. at is the epoch the current call has
	// reached; a call that continues a Session replays the log and sees
	// the templates as they stood at epoch at (see session.go).
	log []*epoch
	at  int

	// floor is the lowest τ a Session will ask this miner for. When
	// remember is set, the call records what a later call at a lower τ
	// can reuse: the admitted singletons, each pattern's sweeps, the
	// joins whose seed count clears the floor, and the key each stored
	// pattern was admitted under. A miner outside a session has floor τ
	// and records nothing.
	floor    float64
	remember bool
	singles  map[int]*ScoredPattern
	trails   map[*ScoredPattern]*trail
	joined   map[joinKey]joinRecord
	keys     map[*ScoredPattern]string

	stats Stats
	obs   *obs.Registry // nil-safe metrics sink (cfg.Obs)

	// ctx carries the run's trace span (if any) to the worker-pool batch
	// spans; it scopes observability only, never mining decisions.
	ctx context.Context
}

// abstractAction is one template of abstract_actions[w] with its
// two-column (src, dst) realization table realizations[w][a], the index
// over the table's src column that extension joins probe, and the type IDs
// of its endpoints. Templates only carry taxonomy types (TemplatesOf
// climbs Taxonomy.Ancestors), so both IDs are valid. ingest is the only
// writer of the table and the index, and it runs serially between
// generations, so join workers only read them.
type abstractAction struct {
	pattern.Template
	tbl      *relational.Table
	ix       *relational.Index
	src, dst int32
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
// context. It is the first call of a Session that is never continued.
func MineContext(ctx context.Context, store Store, seeds []taxonomy.EntityID, seedType taxonomy.Type, w action.Window, cfg Config) (*Result, error) {
	s, err := NewSession(store, seeds, seedType, w, cfg, cfg.Tau)
	if err != nil {
		return nil, err
	}
	return s.Mine(ctx, cfg.Tau)
}

func newMiner(store Store, seeds []taxonomy.EntityID, seedType taxonomy.Type, w action.Window, cfg Config) *miner {
	m := &miner{
		store:             store,
		reg:               store.Registry(),
		tax:               store.Registry().Taxonomy(),
		cfg:               cfg,
		window:            w,
		seeds:             seeds,
		seedType:          seedType,
		joinWorkers:       resolveJoinWorkers(cfg.JoinWorkers),
		templateIdx:       map[pattern.Template]int{},
		frequent:          map[string]*ScoredPattern{},
		extractedEntities: map[taxonomy.EntityID]bool{},
		processedTypes:    map[taxonomy.Type]bool{},
		floor:             cfg.Tau,
		singles:           map[int]*ScoredPattern{},
		trails:            map[*ScoredPattern]*trail{},
		joined:            map[joinKey]joinRecord{},
		keys:              map[*ScoredPattern]string{},
		obs:               cfg.Obs,
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
	m.newWorkers()
	m.obs.Gauge(obs.MiningJoinWorkers).Set(float64(m.joinWorkers))
	m.processedTypes[seedType] = true
	return m
}

// preprocess is line 1: the first extraction, which the log records as
// epoch 0.
func (m *miner) preprocess() {
	if m.cfg.Incremental {
		// Extract, reduce and abstract the seed entities' actions.
		m.extractEntities(m.seeds)
	} else {
		// Non-incremental variants materialize the entire window's edits
		// graph before mining (the conventional graph-mining input).
		m.extractAll()
	}
	m.logEpoch(nil)
}

// extractEntities implements reduced_and_abstract_actions(S, w): pull the
// revision histories of the given entities within the window, reduce them,
// and fold each surviving action's abstractions into the template tables.
func (m *miner) extractEntities(ids []taxonomy.EntityID) {
	fresh := ids[:0:0]
	for _, id := range ids {
		if !m.extractedEntities[id] {
			m.extractedEntities[id] = true
			m.extracted = append(m.extracted, id)
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
		if !m.extractedEntities[a.Edge.Src] {
			m.extractedEntities[a.Edge.Src] = true
			m.extracted = append(m.extracted, a.Edge.Src)
		}
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
			ti, ok := m.templateIdx[tmpl]
			if !ok {
				ti = len(m.templates)
				m.templateIdx[tmpl] = ti
				m.templates = append(m.templates, abstractAction{
					Template: tmpl,
					tbl:      relational.NewTable("src", "dst"),
					ix:       relational.NewIndex(0),
					src:      m.typeIDs[tmpl.SrcType],
					dst:      m.typeIDs[tmpl.DstType],
				})
			}
			m.templates[ti].tbl.Append(relational.Row{relational.Value(a.Edge.Src), relational.Value(a.Edge.Dst)})
		}
	}
	for _, tmpl := range m.templates {
		tmpl.ix.Update(tmpl.tbl)
	}
}

// seedSingletons implements line 2: singleton patterns whose source type is
// comparable with the seed type and whose frequency clears the threshold.
// The incremental variants know, by construction, that only templates with
// seed-comparable sources can seed a connected pattern; the full-graph
// variants behave like conventional graph miners and evaluate every single
// edge of the materialized graph as a candidate — the §6.2 candidate gap.
func (m *miner) seedSingletons() {
	for ti := range m.visible() {
		tmpl := &m.templates[ti]
		if !m.tax.Comparable(tmpl.SrcType, m.seedType) {
			if !m.cfg.Incremental {
				m.stats.Candidates++ // considered, then rejected by the frequency test
			}
			continue
		}
		m.stats.Candidates++
		if sp := m.singles[ti]; sp != nil {
			m.admit(candidate{pat: sp.Pattern, count: sp.SourceCount, sp: sp}, nil)
			continue
		}
		m.trySingleton(ti)
	}
}

// trySingleton tests template ti's singleton and admits it if it clears
// τ. Its realizations are the template pairs with distinct endpoints
// (distinct variables take distinct entities).
func (m *miner) trySingleton(ti int) {
	src, dst := m.templates[ti].tbl.Col(0), m.templates[ti].tbl.Col(1)
	tbl := relational.NewTable(pattern.VarName(0), pattern.VarName(1))
	for i := range m.rowsOf(ti) {
		if src[i] != dst[i] {
			tbl.Append(relational.Row{src[i], dst[i]})
		}
	}
	count := m.workers[0].seeds.sourceCount(tbl)
	if m.belowTau(count) {
		m.obs.Counter(obs.MiningPatternsRejected).Inc()
		return
	}
	if sp := m.admit(candidate{pat: m.templates[ti].AsSingleton(), count: count}, tbl.Dedup); sp != nil && m.remember {
		m.singles[ti] = sp
	}
}

// admit stores a candidate that cleared τ unless an isomorphic pattern is
// already frequent, and returns the stored pattern, or nil on such a
// realization cache hit. realize builds the candidate's realization table,
// deduplicated; admit calls it only for a new class, so a cache hit builds
// no table. The pattern is stored as its class's canonical variant, with
// the realization columns renumbered to match, so the stored pattern does
// not depend on which member of the class the miner met first. A
// candidate an earlier call admitted is stored as that call stored it,
// and looked up under the key it was stored with; realize may then be
// nil.
func (m *miner) admit(c candidate, realize func() *relational.Table) *ScoredPattern {
	sp := c.sp
	var key string
	var perm []pattern.VarID
	if sp != nil {
		key = m.keys[sp]
	} else {
		key, perm = m.coder.Key(c.pat)
	}
	if _, ok := m.frequent[key]; ok {
		m.obs.Counter(obs.MiningCacheHits).Inc()
		return nil // realization cache hit: already discovered
	}
	if sp == nil {
		tbl := realize()
		to := make([]int, len(perm))
		for i, v := range perm {
			to[i] = int(v)
		}
		// The table is fresh, so its columns move in place; each takes the
		// name of its new position.
		tbl.Reorder(to)
		for v := range to {
			tbl.SetColumnName(v, pattern.VarName(pattern.VarID(v)))
		}
		sp = &ScoredPattern{
			Pattern:      m.coder.Variant(c.pat, perm),
			Frequency:    m.frequency(c.count),
			SourceCount:  c.count,
			Realizations: tbl,
		}
		if m.remember {
			m.keys[sp] = key
		}
	}
	m.frequent[key] = sp
	m.order = append(m.order, key)
	m.stats.FrequentFound++
	m.obs.Counter(obs.MiningPatternsAdmitted).Inc()
	m.obs.Counter(obs.MiningRealizationRows).Add(int64(sp.Realizations.Len()))
	return sp
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

// belowFloor reports whether such a pattern fails even the lowest τ the
// miner will be asked for.
func (m *miner) belowFloor(count int) bool {
	return m.frequency(count) < m.floor
}

// visible is the number of templates at the current epoch.
func (m *miner) visible() int {
	if m.at < len(m.log)-1 {
		return len(m.log[m.at].rows)
	}
	return len(m.templates)
}

// rowsOf is template ti's row count at the current epoch.
func (m *miner) rowsOf(ti int) int {
	if m.at < len(m.log)-1 {
		return int(m.log[m.at].rows[ti])
	}
	return m.templates[ti].tbl.Len()
}

// seedIndex numbers the seed entities over the dense entity IDs, up to
// the largest seed: index[id] is one plus id's ordinal in seeds, and 0
// marks a non-seed; larger IDs are not seeds. NoEntity is never one: it
// would match the null cells of outer joins.
func seedIndex(seeds []taxonomy.EntityID) []int32 {
	n := 0
	for _, s := range seeds {
		n = max(n, int(s)+1)
	}
	index := make([]int32, n)
	for i, s := range seeds {
		if s >= 0 {
			index[s] = int32(i) + 1
		}
	}
	return index
}

// seedCounter counts the distinct seed entities in a column without
// allocating: each count is one epoch, and a seed counts the first time
// its stamp is set to the current epoch. The index is shared read-only by
// every worker; the stamps, one per seed ordinal, belong to one worker.
type seedCounter struct {
	index []int32  // index[id]: 1 + id's seed ordinal, 0 for a non-seed
	stamp []uint32 // stamp[ordinal] == epoch: that seed already counted
	epoch uint32
}

// sourceCount counts the distinct seed entities in tbl's source column —
// the SQL COUNT(DISTINCT v0) restricted to the seed set; nulls and
// non-seed IDs are skipped. Duplicate rows do not change the count, so
// it is taken before Dedup.
func (c *seedCounter) sourceCount(tbl *relational.Table) int {
	c.next()
	n := 0
	for _, v := range tbl.Col(sourceCol(tbl)) {
		n += c.add(v)
	}
	return n
}

// matchCount is sourceCount of the table a join would write for the match
// list pairs, taken without writing it: the distinct seed entities in l's
// source column at the pairs' l rows. Pairs come l-major, so a row that
// matched several times is looked at once.
func (c *seedCounter) matchCount(l *relational.Table, pairs []int32) int {
	c.next()
	col := l.Col(sourceCol(l))
	n, last := 0, int32(-1)
	for k := 0; k < len(pairs); k += 2 {
		if li := pairs[k]; li != last {
			n += c.add(col[li])
			last = li
		}
	}
	return n
}

// sourceCol is the column of tbl holding the source variable, column 0
// when none is named after it.
func sourceCol(tbl *relational.Table) int {
	return max(tbl.ColumnIndex(pattern.VarName(pattern.SourceVar)), 0)
}

// next starts a count.
func (c *seedCounter) next() {
	c.epoch++
	if c.epoch == 0 {
		// Wrapped: stamps left from the epoch that first had this number
		// would read as counted.
		clear(c.stamp)
		c.epoch = 1
	}
}

// add returns 1 when v is a seed the current count has not seen, else 0.
func (c *seedCounter) add(v relational.Value) int {
	if v < 0 || int(v) >= len(c.index) {
		return 0
	}
	if o := c.index[v] - 1; o >= 0 && c.stamp[o] != c.epoch {
		c.stamp[o] = c.epoch
		return 1
	}
	return 0
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
			if err := FetchFailure(m.store); err != nil {
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
// newly mentioned by a frequent pattern (lines 5–8), and logs the pull as
// the next epoch. When an earlier call of the session already pulled the
// same types at this point, the rows are in place and the call moves on
// to that epoch; when it pulled others, the graph first goes back to the
// current epoch. It reports whether anything was pulled.
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
	sort.Slice(newTypes, func(i, j int) bool { return newTypes[i] < newTypes[j] })
	if m.at < len(m.log)-1 {
		if slices.Equal(m.log[m.at+1].types, newTypes) {
			m.at++
			return true
		}
		m.rollback()
	}
	m.obs.Counter(obs.MiningTypePulls).Add(int64(len(newTypes)))
	for _, t := range newTypes {
		m.extractType(t)
	}
	m.logEpoch(newTypes)
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
			m.extracted = append(m.extracted, id)
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
// workers admit identical pattern sequences. A job an earlier call of the
// session joined against the same rows takes that call's outcome instead
// of joining again, and joins only the extensions that now clear τ
// without a stored pattern (recall). It reports whether any new frequent
// pattern was admitted.
func (m *miner) expandOnce() bool {
	admitted := false
	for start := 0; start < len(m.order); {
		frontier := m.order[start:]
		base := start
		start = len(m.order)
		for len(m.swept) < len(m.order) {
			m.swept = append(m.swept, 0)
		}
		to := m.visible()
		// The generation's jobs in merge order. A recalled job takes a
		// place only when it has candidates, and its result waits in
		// recalled; joins counts the jobs with something to join.
		jobs, recalled := m.jobs[:0], m.recalled[:0]
		joins := 0
		for fi, key := range frontier {
			sp := m.frequent[key]
			if sp.Pattern.Size() >= m.cfg.MaxActions {
				continue
			}
			from := m.swept[base+fi]
			m.swept[base+fi] = to
			// Each tested (pattern, abstract action) pair is one considered
			// candidate — the metric of the §6.2 small-data experiment. The
			// full-graph variants accumulate far more of these because
			// abstract_actions[w] holds every template in the materialized
			// graph, relevant or not.
			m.stats.Candidates += to - from
			// Only a template whose source has the type of some pattern
			// variable has an extension (§4.2 glues the source to a
			// same-type variable); the other pairs count as candidates but
			// get no job.
			varTypes := m.varTypeIDs(sp.Pattern)
			past := m.pastSweeps(sp)
			for ti := from; ti < to; ti++ {
				if !slices.Contains(varTypes, m.templates[ti].src) {
					continue
				}
				for len(past) > 0 && int(past[0].to) <= ti {
					past = past[1:]
				}
				res, pending := m.recall(sp, ti, past)
				if res.recalled {
					if len(res.cands) == 0 {
						continue
					}
					recalled = append(recalled, recalledJob{job: len(jobs), res: res})
				}
				if pending {
					joins++
				}
				jobs = append(jobs, extendJob{sp: sp, tmpl: ti, varTypes: varTypes})
			}
			m.noteSweep(sp, to)
		}
		// Every slot of the buffer is zero here: new capacity comes
		// zeroed, and each generation zeroes its results after the merge.
		results := slices.Grow(m.results[:0], len(jobs))[:len(jobs)]
		for _, r := range recalled {
			results[r.job] = r.res
		}
		m.jobs, m.results, m.recalled = jobs, results, recalled
		m.runExtendJobs(jobs, results, joins)
		if m.merge(jobs, results) {
			admitted = true
		}
		// The next generation's runJob reads a slot that was not
		// recalled as empty, and the miner keeps its buffers between
		// calls, where they need not keep the merged candidates alive.
		clear(results)
		clear(recalled)
	}
	return admitted
}

// merge admits the candidates that cleared τ in job order and reports
// whether anything was admitted. When the call remembers, each joined
// job's outcome is recorded for a later call: every extension whose seed
// count clears the floor, with the pattern it was admitted as.
func (m *miner) merge(jobs []extendJob, results []jobResult) bool {
	admitted := false
	rejected := 0
	for i, jr := range results {
		rejected += int(jr.rejected)
		var memo []joinMemo
		for _, c := range jr.cands {
			var sp *ScoredPattern
			if c.cleared() {
				sp = m.admit(c, func() *relational.Table { return m.realize(jobs[i], c) })
				admitted = admitted || sp != nil
			}
			if m.remember && !jr.recalled {
				memo = append(memo, joinMemo{ext: c.ext, count: c.count, sp: sp})
			} else if m.remember && sp != nil && c.sp == nil {
				m.rememberAdmission(jobs[i], c.ext, sp)
			}
		}
		if m.remember && !jr.recalled {
			m.rememberJoin(jobs[i], memo)
		}
	}
	m.obs.Counter(obs.MiningPatternsRejected).Add(int64(rejected))
	return admitted
}

// varTypeIDs returns the type IDs of p's variables, -1 for a type outside
// the taxonomy (no template has it).
func (m *miner) varTypeIDs(p pattern.Pattern) []int32 {
	ids := make([]int32, len(p.Vars))
	for i, t := range p.Vars {
		id, ok := m.typeIDs[t]
		if !ok {
			id = -1
		}
		ids[i] = id
	}
	return ids
}

// extendWith runs the join query of §4.2 that computes
// realizations[w][p'] from realizations[w][p] and realizations[w][a] up to
// its projection: equijoin on glued variables, inequality against all
// collidable columns for a fresh variable. The source variable's equality
// probes the template's index, except under PM−join, whose engine forces
// the nested loop. The matched (pattern row, template row) pairs are left
// in the worker's match buffer, and extendWith returns their seed-source
// count, taken from the pattern table without building the joined one:
// only an admitted extension gets a table (realize). It runs on the
// calling worker's engine, spec, buffer and counter, and reads only frozen
// miner state (the realization tables, template tables and template
// indexes of the current generation), so jobs need no synchronization. It
// allocates nothing once the worker's buffers have grown.
func (m *miner) extendWith(w *worker, job extendJob, ext pattern.Extension) int {
	l := job.sp.Realizations
	tmpl := &m.templates[job.tmpl]
	s := &w.spec
	s.EqL = append(s.EqL[:0], int(ext.SrcVar))
	s.EqR = append(s.EqR[:0], 0)
	s.NeqL, s.NeqR = s.NeqL[:0], s.NeqR[:0]
	if !ext.NewVar {
		s.EqL = append(s.EqL, int(ext.DstVar))
		s.EqR = append(s.EqR, 1)
	} else {
		// CollidableVars(m.tax, tmpl.DstType, -1) over the precomputed
		// comparability matrix: same ascending variable order, no
		// parent-chain walks on the worker hot path. Variable types outside
		// the taxonomy (never produced by templates, but possible in
		// hand-built patterns) fall back to the live check.
		for i, vt := range job.varTypes {
			var collides bool
			if vt >= 0 {
				collides = m.cmpMat[int(vt)*m.nTypes+int(tmpl.dst)]
			} else {
				collides = m.tax.Comparable(job.sp.Pattern.Vars[i], tmpl.DstType)
			}
			if collides {
				s.NeqL = append(s.NeqL, i)
				s.NeqR = append(s.NeqR, 1)
			}
		}
	}
	// A call replaying its session's log joins the template as it stood
	// at the current epoch.
	r := tmpl.tbl
	if n := m.rowsOf(job.tmpl); n < r.Len() {
		r = r.PrefixView(&w.view, n)
	}
	w.pairs = w.eng.Match(l, r, tmpl.ix, s, w.pairs[:0])
	return w.seeds.matchCount(l, w.pairs)
}

// realize builds the realization table of a candidate extension of job
// from its match list: one column per pattern variable (the pattern's,
// then the fresh one), duplicates dropped with their first occurrence
// kept. The template table is read as the join read it: no ingest runs
// between a generation's joins and its merge.
func (m *miner) realize(job extendJob, c candidate) *relational.Table {
	l := job.sp.Realizations
	spec := relational.JoinSpec{LOut: make([]int, l.Arity())}
	for i := range spec.LOut {
		spec.LOut[i] = i
	}
	if c.ext.NewVar {
		spec.ROut = []int{1}
	}
	return relational.FromMatches(l, m.templates[job.tmpl].tbl, &spec, c.pairs, true)
}

func (m *miner) result() *Result {
	m.obs.Counter(obs.MiningCandidates).Add(int64(m.stats.Candidates))
	res := &Result{
		SeedType: m.seedType,
		Seeds:    m.seeds,
		SeedSize: len(m.seeds),
		Window:   m.window,
		Stats:    m.stats,
	}
	// Every join ran on some worker's engine. The totals are integer sums,
	// so they read the same whichever worker ran which job.
	for _, w := range m.workers {
		res.Stats.Join.Add(w.eng.Stats)
	}
	all := make([]pattern.Pattern, 0, len(m.order))
	for _, key := range m.order {
		sp := m.frequent[key]
		res.AllFrequent = append(res.AllFrequent, *sp)
		all = append(all, sp.Pattern)
	}
	// Line 16: keep the most specific patterns. m.order holds one pattern
	// per isomorphism class, the distinct classes MostSpecific selects
	// from.
	for _, i := range pattern.MostSpecific(all, m.tax) {
		res.Patterns = append(res.Patterns, res.AllFrequent[i])
	}
	sortScored(res.Patterns)
	sortScored(res.AllFrequent)
	return res
}

// publishJoins adds the joins the workers' engines counted since their
// Stats were last reset to wiclean_mining_extend_joins_total. Every join a
// worker's engine makes is one extension join, and the engines' Stats are
// reset at the start of each Session call, so it runs once per call and
// once per relative-stage miner, errors included.
func (m *miner) publishJoins() {
	joins := 0
	for _, w := range m.workers {
		joins += w.eng.Stats.Joins
	}
	m.obs.Counter(obs.MiningExtendJoins).Add(int64(joins))
}
