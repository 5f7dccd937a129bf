// Intra-window parallel mining: the candidate-extension loop of Algorithm 1
// sharded across a join-worker pool.
//
// Within one generation of the sweep, every (pattern, template) pair is an
// independent job: it reads a frozen snapshot of the miner (the frontier
// pattern's realization table, the template tables, the taxonomy) and
// writes nothing shared. Each worker therefore runs its own
// relational.Engine — no locks on the hot path — and the barrier merges the
// per-job Stats deltas and admits the candidate patterns in deterministic
// job order. That ordered merge, not a shared locked engine, is what makes
// Result byte-identical for every JoinWorkers setting: admission order
// (and with it discovery order, cache-hit resolution and realization-table
// row order) never depends on which worker finished first.
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

// extendJob is one (frontier pattern, template) candidate pair.
type extendJob struct {
	sp   *ScoredPattern
	tmpl pattern.Template
}

// candidate is one extension's pattern with its realization table, pending
// the serial frequency test.
type candidate struct {
	pat pattern.Pattern
	tbl *relational.Table
}

// jobResult is everything one job hands back across the barrier.
type jobResult struct {
	cands []candidate
	stats relational.Stats // this job's engine-work delta
	dur   time.Duration    // busy time, for utilization and LPT modeling
}

// resolveJoinWorkers maps the config knob to a concrete worker count.
func resolveJoinWorkers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// newEngine builds a join engine for one worker: the configured strategy
// (the planner by default), a private column arena for join-output buffers,
// the shared atomic metrics registry, and the physical-join implementation
// override (nil = columnar) the difftest suite uses to replay pipelines on
// the row-oriented reference.
func (m *miner) newEngine() relational.Engine {
	return relational.Engine{
		Strategy: m.cfg.Strategy,
		Arena:    &relational.Arena{},
		Impl:     m.cfg.JoinBackend,
		Obs:      m.obs,
	}
}

// runJob executes one job on the given engine: every extension of the
// pattern with the template is joined and deduplicated. The candidate
// order inside a job follows Extensions' enumeration order, which depends
// only on the pattern and template.
func (m *miner) runJob(eng *relational.Engine, job extendJob) jobResult {
	before := eng.Stats
	start := time.Now() //wiclean:allow-nondet job busy time feeds utilization metrics and LPT modeling only
	var cands []candidate
	for _, ext := range job.sp.Pattern.Extensions(job.tmpl) {
		tbl := m.extendWith(eng, job.sp, job.tmpl, ext)
		cands = append(cands, candidate{pat: ext.Pattern, tbl: tbl})
	}
	//wiclean:allow-nondet dur feeds utilization metrics and LPT modeling; admission order is job order
	return jobResult{cands: cands, stats: eng.Stats.Minus(before), dur: time.Since(start)}
}

// runExtendJobs executes a generation's jobs — serially on one engine when
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
	start := time.Now() //wiclean:allow-nondet batch wall time feeds the obs histograms below only
	var busy time.Duration
	if workers <= 1 {
		for i := range jobs {
			results[i] = m.runJob(&m.engine, jobs[i])
			busy += results[i].dur
		}
	} else {
		var next atomic.Int64
		busyNS := make([]int64, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				eng := m.newEngine()
				defer m.flushArenaMetrics(&eng)
				for {
					i := int(next.Add(1)) - 1
					if i >= len(jobs) {
						return
					}
					results[i] = m.runJob(&eng, jobs[i])
					busyNS[w] += int64(results[i].dur)
				}
			}(w)
		}
		wg.Wait()
		for _, ns := range busyNS {
			busy += time.Duration(ns)
		}
	}
	bsp.End()
	//wiclean:allow-nondet utilization metrics only; results were merged in job order above
	if wall := time.Since(start); wall > 0 && len(jobs) > 0 {
		m.obs.Counter(obs.MiningExtendBatches).Inc()
		m.obs.Histogram(obs.MiningExtendBatchSeconds, obs.DurationBuckets).
			ObserveDurationWithExemplar(wall, bsp.TraceIDString())
		util := busy.Seconds() / (float64(workers) * wall.Seconds())
		m.obs.Histogram(obs.MiningJoinWorkerUtilization, obs.RatioBuckets).Observe(util)
	}
	return results
}
