// Intra-window parallel mining: the candidate-extension loop of Algorithm 1
// sharded across a join-worker pool.
//
// Within one generation of the sweep, every gluable (pattern, template)
// pair is an independent job: it reads a frozen snapshot of the miner (the
// frontier pattern's realization table, the template tables, the taxonomy,
// the seed set) and writes nothing shared. Each worker therefore runs its
// own relational.Engine — no locks on the hot path — and tests τ itself, so
// only candidates that clear it are deduplicated and built into patterns.
// The barrier admits those candidates in deterministic job order. That
// ordered merge, not a shared locked engine, is what makes Result
// byte-identical for every JoinWorkers setting: admission order (and with
// it discovery order, cache-hit resolution and realization-table row
// order) never depends on which worker finished first. The engines' Stats
// are summed once, when the result is built; integer sums do not depend on
// which worker ran which join.
package mining

import (
	"runtime"
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
// and is shared, read-only, by all of the pattern's jobs.
type extendJob struct {
	sp       *ScoredPattern
	tmpl     int
	varTypes []int32
}

// candidate is a pattern that cleared τ, with its deduplicated realization
// table and seed-source count, pending the serial realization-cache check.
type candidate struct {
	pat   pattern.Pattern
	tbl   *relational.Table
	count int
}

// jobResult is everything one job hands back across the barrier.
type jobResult struct {
	cands    []candidate
	rejected int // extensions that fell below τ
}

// resolveJoinWorkers maps the config knob to a concrete worker count.
func resolveJoinWorkers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// worker is one join worker's state, created with the miner and kept for
// its lifetime: the engine with its private arena of join outputs, the
// join spec every extension is built into, and the distinct-seed counter.
// Only the worker's own goroutine touches it while a batch runs.
type worker struct {
	eng   relational.Engine
	spec  relational.JoinSpec
	seeds seedCounter
}

// newWorkers builds the miner's join workers, all before any goroutine
// starts: the configured strategy, a private arena and the shared atomic
// metrics registry.
func (m *miner) newWorkers() {
	index := seedIndex(m.seeds)
	m.workers = make([]*worker, m.joinWorkers)
	for i := range m.workers {
		m.workers[i] = &worker{
			eng: relational.Engine{
				Strategy: m.cfg.Strategy,
				Arena:    &relational.Arena{},
				Obs:      m.obs,
			},
			seeds: seedCounter{index: index, stamp: make([]uint32, len(m.seeds))},
		}
	}
}

// runJob executes one job on the given worker: every extension of the
// pattern with the template is joined and scored, and only the extensions
// that clear τ are built into candidate patterns. The candidate order
// inside a job follows Extensions' enumeration order, which depends only
// on the pattern and template.
func (m *miner) runJob(w *worker, job extendJob) jobResult {
	var res jobResult
	tmpl := m.templates[job.tmpl].Template
	for _, ext := range job.sp.Pattern.Extensions(tmpl) {
		tbl, count := m.extendWith(w, job, ext)
		if tbl == nil {
			res.rejected++
			continue
		}
		res.cands = append(res.cands, candidate{pat: job.sp.Pattern.Extend(tmpl, ext), tbl: tbl, count: count})
	}
	return res
}

// runExtendJobs executes a generation's jobs — serially on worker 0 when
// the pool is size one, otherwise across the worker pool — and returns
// results indexed by job, so callers can merge in job order regardless of
// completion order.
func (m *miner) runExtendJobs(jobs []extendJob) []jobResult {
	results := make([]jobResult, len(jobs))
	workers := m.joinWorkers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	var bsp *trace.Span
	if len(jobs) > 0 {
		//wiclean:allow-tracectx leaf batch span; worker goroutines take jobs from the shared slice, not a child context
		_, bsp = trace.StartSpan(m.ctx, "mining.extend_batch")
		bsp.SetAttrInt("jobs", int64(len(jobs)))
		bsp.SetAttrInt("workers", int64(workers))
	}
	start := time.Now() //wiclean:allow-nondet batch wall time feeds the obs histogram below only
	if workers <= 1 {
		for i := range jobs {
			results[i] = m.runJob(m.workers[0], jobs[i])
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(jobs) {
						return
					}
					results[i] = m.runJob(m.workers[w], jobs[i])
				}
			}(w)
		}
		wg.Wait()
	}
	bsp.End()
	//wiclean:allow-nondet batch metrics only; results are merged in job order by the caller
	if wall := time.Since(start); wall > 0 && len(jobs) > 0 {
		m.obs.Counter(obs.MiningExtendBatches).Inc()
		m.obs.Histogram(obs.MiningExtendBatchSeconds, obs.DurationBuckets).
			ObserveDurationWithExemplar(wall, bsp.TraceIDString())
	}
	return results
}
