// Intra-window parallel mining: the candidate-extension loop of Algorithm 1
// sharded across a join-worker pool.
//
// Within one generation of the sweep, every gluable (pattern, template)
// pair is an independent job: it reads a frozen snapshot of the miner (the
// frontier pattern's realization table, the template tables, the taxonomy,
// the seed set) and writes nothing shared. Each worker therefore runs its
// own relational.Engine — no locks on the hot path — and tests τ itself on
// the join's match list, so a rejected extension writes no table. A
// candidate that clears it carries its match list across the barrier,
// which admits the candidates in deterministic job order and builds the
// realization table of each new class, and of no cache hit. That
// ordered merge, not a shared locked engine, is what makes Result
// byte-identical for every JoinWorkers setting: admission order (and with
// it discovery order, cache-hit resolution and realization-table row
// order) never depends on which worker finished first. The engines' Stats
// are summed once, when the result is built; integer sums do not depend on
// which worker ran which join.
package mining

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"wiclean/internal/obs"
	"wiclean/internal/obs/trace"
	"wiclean/internal/pattern"
	"wiclean/internal/relational"
)

// extendJob is one (frontier pattern, template) pair whose template source
// glues to some pattern variable. tmpl indexes miner.templates; varTypes
// holds the type IDs of the pattern's variables (-1 outside the taxonomy)
// and is shared, read-only, by all of the pattern's jobs. A walk builds
// hundreds of thousands of jobs, so every field costs.
type extendJob struct {
	sp       *ScoredPattern
	tmpl     int
	varTypes []int32
}

// candidate is an extension pending the serial merge: a pattern that
// cleared τ, with its join's match list and seed-source count, for the
// realization-cache check, which builds its table only for a new class;
// or, without either, a rejected extension whose seed count clears the
// floor, to be remembered. sp is set when an earlier call of the session
// admitted the same extension: the pattern as that call stored it, with
// its table. A match list lives only until the merge.
type candidate struct {
	pat   pattern.Pattern
	pairs []int32
	count int
	ext   pattern.Extension
	sp    *ScoredPattern
}

// cleared reports whether c cleared τ: it has a match list to build its
// table from, or a stored pattern.
func (c *candidate) cleared() bool { return c.pairs != nil || c.sp != nil }

// jobResult is everything one job hands back across the barrier. A
// recalled result comes from an earlier call of the session; a candidate
// in it that cleared τ without a stored pattern still has to be joined.
type jobResult struct {
	cands    []candidate
	rejected int32 // extensions that fell below τ
	recalled bool
}

// recalledJob is a recalled result waiting for its job's place.
type recalledJob struct {
	job int
	res jobResult
}

// resolveJoinWorkers maps the config knob to a concrete worker count.
func resolveJoinWorkers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// worker is one join worker's state, created with the miner and kept for
// its lifetime: the engine, the join spec every extension is built into,
// the buffer its join's match list goes into, the distinct-seed counter,
// the view a replaying call joins a template's earlier rows through, and
// the buffer a job's extensions are enumerated into. Only the worker's own
// goroutine touches it while a batch runs.
type worker struct {
	eng   relational.Engine
	spec  relational.JoinSpec
	pairs []int32
	seeds seedCounter
	view  relational.Table
	exts  []pattern.Extension
}

// jobChunk is how many consecutive jobs a join worker claims with one
// atomic add. Each result still lands at its job's index, so the merge
// order does not depend on the chunk.
const jobChunk = 8

// newWorkers builds the miner's join workers, all before any goroutine
// starts, on the configured strategy. The engines count their joins in
// their Stats, which the miner publishes once per call (publishJoins).
func (m *miner) newWorkers() {
	index := seedIndex(m.seeds)
	m.workers = make([]*worker, m.joinWorkers)
	for i := range m.workers {
		m.workers[i] = &worker{
			eng:   relational.Engine{Strategy: m.cfg.Strategy},
			seeds: seedCounter{index: index, stamp: make([]uint32, len(m.seeds))},
		}
	}
}

// runJob executes one job on the given worker: every extension of the
// pattern with the template is joined up to its match list and scored,
// and only the extensions that clear τ become candidate patterns, each
// with a copy of its match list. The candidate order inside a job follows
// AppendExtensions' enumeration order, which depends only on the pattern
// and template. A recalled result only has its pending candidates joined.
// A job whose every extension falls below τ allocates nothing once the
// worker is warm, unless the call remembers.
func (m *miner) runJob(w *worker, job extendJob, res jobResult) jobResult {
	tmpl := m.templates[job.tmpl].Template
	if res.recalled {
		for i := range res.cands {
			if c := &res.cands[i]; !c.cleared() {
				m.extendWith(w, job, c.ext)
				c.pairs = slices.Clone(w.pairs)
				c.pat = job.sp.Pattern.Extend(tmpl, c.ext)
			}
		}
		return res
	}
	w.exts = job.sp.Pattern.AppendExtensions(w.exts[:0], tmpl)
	for _, ext := range w.exts {
		count := m.extendWith(w, job, ext)
		if m.belowTau(count) {
			res.rejected++
			if m.remember && !m.belowFloor(count) {
				res.cands = append(res.cands, candidate{count: count, ext: ext})
			}
			continue
		}
		res.cands = append(res.cands, candidate{pat: job.sp.Pattern.Extend(tmpl, ext), pairs: slices.Clone(w.pairs), count: count, ext: ext})
	}
	return res
}

// runExtendJobs executes a generation's jobs — serially on worker 0 when
// the pool is size one, otherwise across the worker pool — and stores
// each result at its job's index, so callers can merge in job order
// regardless of completion order. joins counts the jobs with something to
// join; a recalled job without pending extensions passes through.
func (m *miner) runExtendJobs(jobs []extendJob, results []jobResult, joins int) {
	if joins == 0 {
		return
	}
	workers := min(m.joinWorkers, joins)
	//wiclean:allow-tracectx leaf batch span; worker goroutines take jobs from the shared slice, not a child context
	_, bsp := trace.StartSpan(m.ctx, "mining.extend_batch")
	bsp.SetAttrInt("jobs", int64(joins))
	bsp.SetAttrInt("workers", int64(workers))
	start := time.Now() //wiclean:allow-nondet batch wall time feeds the obs histogram below only
	if workers <= 1 {
		for i := range jobs {
			results[i] = m.runJob(m.workers[0], jobs[i], results[i])
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for {
					end := int(next.Add(jobChunk))
					if end-jobChunk >= len(jobs) {
						return
					}
					for i := end - jobChunk; i < min(end, len(jobs)); i++ {
						results[i] = m.runJob(m.workers[w], jobs[i], results[i])
					}
				}
			}(w)
		}
		wg.Wait()
	}
	bsp.End()
	//wiclean:allow-nondet batch metrics only; results are merged in job order by the caller
	if wall := time.Since(start); wall > 0 {
		m.obs.Counter(obs.MiningExtendBatches).Inc()
		m.obs.Histogram(obs.MiningExtendBatchSeconds, obs.DurationBuckets).
			ObserveDurationWithExemplar(wall, bsp.TraceIDString())
	}
}
