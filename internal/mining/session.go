package mining

import (
	"context"
	"fmt"
	"time"

	"wiclean/internal/action"
	"wiclean/internal/obs"
	"wiclean/internal/obs/trace"
	"wiclean/internal/pattern"
	"wiclean/internal/relational"
	"wiclean/internal/taxonomy"
)

// Session is one window's Algorithm 1 miner, kept alive across the
// threshold cuts of Algorithm 2's refinement walk (§4.3 alternates
// "window ×2" with "τ −20%"; a cut mines the same windows again). Its
// first Mine call runs Algorithm 1 from scratch: MineContext is exactly
// that call. A later call at a lower τ runs Algorithm 1 again, step for
// step as a fresh miner would, but takes from the calls before it
// whatever a fresh run would compute the same way:
//
//   - the graph: the extraction and each type pull are logged as epochs,
//     and a call that pulls the same types at the same point replays the
//     epoch instead of pulling, joining each template as it stood then;
//   - the joins: a (pattern, template) pair joined before against the
//     same template rows takes the earlier outcome, which is kept for
//     every extension whose seed count clears the session's floor.
//
// A call that pulls other types than the log holds first rolls the graph
// back to the epoch it has reached. So each call finds exactly what a
// fresh MineContext at its τ finds, realization rows and their order
// included; only the work differs. A session is not safe for concurrent
// use.
type Session struct {
	m     *miner
	store Store   // as given; each call rebinds a ContextStore to its own context
	tau   float64 // τ of the last call; 0 before the first
	err   error   // the failure that ended the session, if any
}

// NewSession validates a window's mining inputs and prepares its miner
// without mining anything. floor is the lowest τ the session will be
// asked for: a call remembers a rejected extension only when its seed
// count clears floor, so the floor bounds what a session holds between
// calls. A floor at cfg.Tau remembers nothing. cfg.Tau only has to be
// valid; each Mine call passes its own τ.
func NewSession(store Store, seeds []taxonomy.EntityID, seedType taxonomy.Type, w action.Window, cfg Config, floor float64) (*Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("mining: empty seed set")
	}
	if !store.Registry().Taxonomy().Has(seedType) {
		return nil, fmt.Errorf("mining: unknown seed type %q", seedType)
	}
	m := newMiner(store, seeds, seedType, w, cfg)
	m.floor = floor
	return &Session{m: m, store: store}, nil
}

// Mine runs the session's window at threshold tau and finds what a fresh
// MineContext at tau finds. The first call mines from scratch; each later
// call must lower τ, and no call may go below the session's floor. A
// result's Stats count the candidates and admissions a fresh run counts,
// and the extraction, joins and comparisons its own call made. After a
// failed call the session only reports that failure.
func (s *Session) Mine(ctx context.Context, tau float64) (*Result, error) {
	switch {
	case s.err != nil:
		return nil, s.err
	case tau <= 0 || tau > 1:
		return nil, fmt.Errorf("mining: Tau %v out of (0, 1]", tau)
	case tau < s.m.floor:
		return nil, fmt.Errorf("mining: Tau %v below the session's floor %v", tau, s.m.floor)
	case s.tau != 0 && tau >= s.tau:
		return nil, fmt.Errorf("mining: a session continues only at a lower Tau (%v after %v)", tau, s.tau)
	}
	first := s.tau == 0
	s.tau = tau
	res, err := s.run(ctx, tau, first)
	s.m.publishJoins()
	s.err = err
	return res, err
}

// run is one call: the preprocessing on the first, then the grow phase.
func (s *Session) run(ctx context.Context, tau float64, first bool) (*Result, error) {
	m := s.m
	ctx, tsp := trace.StartSpan(ctx, "mining.mine")
	tsp.SetAttr("seed_type", string(m.seedType))
	tsp.SetAttrInt("seeds", int64(len(m.seeds)))
	m.store = s.store
	if cs, ok := s.store.(ContextStore); ok {
		m.store = cs.WithContext(ctx)
	}
	m.ctx = ctx
	m.cfg.Tau = tau
	m.remember = tau > m.floor // no later call can go lower
	m.stats = Stats{}
	for _, w := range m.workers {
		w.eng.Stats = relational.Stats{}
	}
	m.obs.Counter(obs.MiningRuns).Inc()

	if first {
		pre := time.Now()                                        //wiclean:allow-nondet Stats.Preprocessing wall time; never read by the mining output
		_, preTrace := trace.StartSpan(ctx, "mining.preprocess") //wiclean:allow-tracectx leaf phase span; fetches keep the mine-level context so the store binding stays shared
		m.preprocess()
		preTrace.End()
		m.stats.Preprocessing = time.Since(pre) //wiclean:allow-nondet Stats timing only; never read by the mining output
		if err := FetchFailure(m.store); err != nil {
			tsp.Fail(err)
			tsp.End()
			return nil, err
		}
	} else {
		m.restart()
	}

	mine := time.Now() //wiclean:allow-nondet Stats.Mining wall time; never read by the mining output
	gctx, growTrace := trace.StartSpan(ctx, "mining.grow")
	m.ctx = gctx // extension-batch spans nest under the grow phase
	m.seedSingletons()
	err := m.grow()
	growTrace.Fail(err)
	growTrace.End()
	if err != nil {
		tsp.Fail(err)
		tsp.End()
		return nil, err
	}
	if m.remember {
		m.settleSweeps()
	}
	// Line 16 is mining too: Stats.Mining and the span cover the selection.
	res := m.result()
	res.Stats.Mining = time.Since(mine) //wiclean:allow-nondet Stats timing only; never read by the mining output

	tsp.SetAttrInt("frequent", int64(m.stats.FrequentFound))
	tsp.SetAttrInt("candidates", int64(m.stats.Candidates))
	tsp.End()
	m.obs.Histogram(obs.MiningSeconds, obs.DurationBuckets).
		ObserveDurationWithExemplar(res.Stats.Preprocessing+res.Stats.Mining, tsp.TraceIDString())
	return res, nil
}

// epoch is one stage of a window's graph construction: the first
// extraction, or one type pull. The templates only grow, so every epoch
// of the log is a prefix of the graph as it stands: the first len(rows)
// templates, template ti with its first rows[ti] rows. Two joins at the
// same epoch read the same rows.
type epoch struct {
	types    []taxonomy.Type // the types pulled, sorted; none for the first extraction
	rows     []int32         // each template's row count after the epoch
	entities int             // len(miner.extracted) after the epoch
}

// sweep records that a pattern was tested against the templates up to to
// (from where its previous sweep ended) at epoch at.
type sweep struct {
	to int32
	at *epoch
}

// trail holds a pattern's sweeps: those of the calls before (past) and
// those of the current call (now).
type trail struct {
	past, now []sweep
}

// joinKey names one extension job: a stored pattern and a template.
type joinKey struct {
	sp   *ScoredPattern
	tmpl int
}

// joinRecord is the outcome of a job joined at epoch at: its extensions
// whose seed count clears the floor. A job with none has no record, so a
// record of another epoch than the pattern's last sweep is one a later
// join replaced with none.
type joinRecord struct {
	at    *epoch
	cands []joinMemo
}

// joinMemo is one extension of a joined job whose seed count clears the
// floor, with the pattern it was admitted as, or nil when it fell below τ
// or an isomorphic pattern was already frequent.
type joinMemo struct {
	ext   pattern.Extension
	count int
	sp    *ScoredPattern
}

// logEpoch records the graph as it now stands as the next epoch, and
// makes it the current one.
func (m *miner) logEpoch(types []taxonomy.Type) {
	rows := make([]int32, len(m.templates))
	for ti := range m.templates {
		rows[ti] = int32(m.templates[ti].tbl.Len())
	}
	m.log = append(m.log, &epoch{types: types, rows: rows, entities: len(m.extracted)})
	m.at = len(m.log) - 1
}

// rollback returns the graph to the current epoch before a call pulls
// other types than the log holds next: it truncates the template tables
// and their indexes, drops the later templates, and forgets the entities
// extracted since. The later epochs leave the log, so no later call
// recalls a join made at one.
func (m *miner) rollback() {
	ep := m.log[m.at]
	for ti, n := range ep.rows {
		m.templates[ti].tbl.Truncate(int(n))
		m.templates[ti].ix.Truncate(int(n))
	}
	for _, tmpl := range m.templates[len(ep.rows):] {
		delete(m.templateIdx, tmpl.Template)
	}
	clear(m.templates[len(ep.rows):])
	m.templates = m.templates[:len(ep.rows)]
	for _, id := range m.extracted[ep.entities:] {
		delete(m.extractedEntities, id)
	}
	m.extracted = m.extracted[:ep.entities]
	clear(m.log[m.at+1:])
	m.log = m.log[:m.at+1]
}

// restart readies the miner for a later call: no pattern is frequent, no
// type is pulled, and the graph is read at the first epoch.
func (m *miner) restart() {
	m.frequent = map[string]*ScoredPattern{}
	m.order = nil
	m.swept = nil
	m.processedTypes = map[taxonomy.Type]bool{m.seedType: true}
	m.at = 0
}

// pastSweeps returns the sweeps earlier calls made of sp.
func (m *miner) pastSweeps(sp *ScoredPattern) []sweep {
	if tr := m.trails[sp]; tr != nil {
		return tr.past
	}
	return nil
}

// noteSweep records that the current call swept sp up to template to.
func (m *miner) noteSweep(sp *ScoredPattern, to int) {
	if !m.remember {
		return
	}
	tr := m.trails[sp]
	if tr == nil {
		tr = &trail{}
		m.trails[sp] = tr
	}
	tr.now = append(tr.now, sweep{to: int32(to), at: m.log[m.at]})
}

// recall returns the outcome of joining sp with template ti when an
// earlier call joined the pair at the current epoch; past starts with the
// earlier sweep that covered ti, if any. The recalled outcome holds the
// extensions that clear the current τ, as earlier calls stored them; an
// extension that clears τ without a stored pattern is left pending,
// without a match list. Otherwise the pair was never joined, or at another epoch,
// and the result is not recalled. A pattern an earlier call stored is
// admitted at the epoch that call admitted it at, since its parent was,
// so its sweeps fall at the same epochs too; only a rollback changes
// them. recall reports whether anything is left to join.
func (m *miner) recall(sp *ScoredPattern, ti int, past []sweep) (jobResult, bool) {
	if len(past) == 0 || past[0].at != m.log[m.at] {
		return jobResult{}, true
	}
	res := jobResult{recalled: true}
	rec, ok := m.joined[joinKey{sp, ti}]
	if !ok || rec.at != past[0].at {
		return res, false
	}
	pending := false
	for _, j := range rec.cands {
		if m.belowTau(j.count) {
			continue
		}
		c := candidate{count: j.count, ext: j.ext}
		if j.sp != nil {
			c.pat, c.sp = j.sp.Pattern, j.sp
		} else {
			pending = true
		}
		res.cands = append(res.cands, c)
	}
	return res, pending
}

// rememberAdmission stores the pattern a pending extension of a recalled
// job was admitted as.
func (m *miner) rememberAdmission(job extendJob, ext pattern.Extension, sp *ScoredPattern) {
	rec := m.joined[joinKey{job.sp, job.tmpl}]
	for i := range rec.cands {
		if rec.cands[i].ext == ext {
			rec.cands[i].sp = sp
		}
	}
}

// rememberJoin records a joined job's extensions that clear the floor.
func (m *miner) rememberJoin(job extendJob, memo []joinMemo) {
	if memo != nil {
		m.joined[joinKey{job.sp, job.tmpl}] = joinRecord{at: m.log[m.at], cands: memo}
	}
}

// settleSweeps makes the current call's sweeps the past of the next one.
// A pattern this call swept through fewer templates keeps its earlier
// sweeps of the rest.
func (m *miner) settleSweeps() {
	for _, key := range m.order {
		tr := m.trails[m.frequent[key]]
		if tr == nil || len(tr.now) == 0 {
			continue
		}
		end := tr.now[len(tr.now)-1].to
		for _, s := range tr.past {
			if s.to > end {
				tr.now = append(tr.now, s)
			}
		}
		tr.past, tr.now = tr.now, tr.past[:0]
	}
}
