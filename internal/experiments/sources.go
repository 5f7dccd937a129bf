package experiments

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"wiclean/internal/action"
	"wiclean/internal/mining"
	"wiclean/internal/model"
	"wiclean/internal/obs"
	"wiclean/internal/source"
	"wiclean/internal/synth"
	"wiclean/internal/windows"
)

// SourcesResult is the resilience experiment's report: a fault-free
// Algorithm 2 run and a fault-injected one over the same world through the
// full source stack (retry/backoff, semaphore, LRU cache), compared
// byte-for-byte on their serialized models, plus an explicit two-iteration
// cache-reuse measurement mirroring the refinement loop's window doubling.
// JSON tags match the wiclean-bench report payload.
type SourcesResult struct {
	Seeds     int     `json:"seeds"`
	FaultRate float64 `json:"fault_rate"`
	Patterns  int     `json:"patterns"`

	// Identical reports whether the fault-injected run produced a model
	// byte-identical to the fault-free one — the retries-mask-faults
	// guarantee of the resilience stack.
	Identical    bool    `json:"byte_identical"`
	CleanSeconds float64 `json:"clean_seconds"`
	FaultSeconds float64 `json:"fault_seconds"`

	// Resilience counters of the fault-injected run.
	FaultsInjected int64 `json:"faults_injected"`
	Retries        int64 `json:"retries"`
	GiveUps        int64 `json:"give_ups"`
	BackendFetches int64 `json:"backend_fetches"`

	// Fetch-latency percentiles (milliseconds) of the fault-injected run,
	// estimated from the wiclean_source_fetch_seconds histogram.
	FetchP50Ms float64 `json:"fetch_p50_ms"`
	FetchP95Ms float64 `json:"fetch_p95_ms"`
	FetchP99Ms float64 `json:"fetch_p99_ms"`

	// Cache accounting of the fault-injected run, whole-run.
	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`

	// Two-iteration reuse measurement: mine every window at width W, then
	// again at 2W through the same stack — the exact shape of one
	// refinement widening step (§4.3). The second iteration should be
	// nearly all hits and pull (almost) nothing from the backend.
	Iter1Fetches int64   `json:"iter1_backend_fetches"`
	Iter2Fetches int64   `json:"iter2_backend_fetches"`
	Iter1HitRate float64 `json:"iter1_cache_hit_rate"`
	Iter2HitRate float64 `json:"iter2_cache_hit_rate"`
}

// sourcesStack builds the standard CLI source stack over an in-memory
// world with its own metrics registry, so each run's counters are
// isolated.
func sourcesStack(w *World, faults *source.Faults) (*source.Store, *obs.Registry, error) {
	reg := obs.NewRegistry()
	opts := source.DefaultOptions()
	opts.Obs = reg
	opts.Faults = faults
	// Faults are masked by retries; a short backoff keeps the benchmark
	// honest about overhead without waiting out production delays.
	opts.RetryBase = time.Millisecond
	// Extra attempts push the residual give-up probability at Rate≈0.2
	// to ~Rate^6 per type, so the deterministic fault schedule converges.
	opts.Retries = 5
	st, err := opts.Store(context.Background(), w.Store, w.Reg)
	if err != nil {
		return nil, nil, err
	}
	return st, reg, nil
}

// sourcesRun executes the full Algorithm 2 walk through a source stack and
// returns the serialized model — the byte-comparison medium.
func sourcesRun(cfg Config, w *World, st *source.Store) ([]byte, int, error) {
	wcfg := windows.Defaults()
	wcfg.Mining = mining.PM(wcfg.InitialTau)
	wcfg.Mining.MaxAbstraction = cfg.Abstraction
	wcfg.Mining.JoinWorkers = cfg.Workers
	wcfg.Obs = cfg.Obs
	o, err := windows.Run(st, w.Seeds, w.Domain.SeedType, w.Span, wcfg)
	if err != nil {
		return nil, 0, err
	}
	var buf bytes.Buffer
	if err := model.Write(&buf, model.Snapshot(o, w.Reg, model.Provenance{})); err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), len(o.Discovered), nil
}

// Sources runs the source-layer resilience experiment: the same world is
// mined fault-free and under a deterministic transient-fault model
// (FailFirst 1 plus the given random rate), and the two models are
// compared byte-for-byte. The run demonstrates the stack's contract —
// transient faults cost retries, never correctness — and measures what the
// resilience costs: retry counts, fetch-latency percentiles, and the cache
// reuse that makes the refinement loop cheap.
func Sources(cfg Config, seeds int, faultRate float64) (*SourcesResult, error) {
	w, err := BuildWorld(cfg, synth.Soccer(), seeds)
	if err != nil {
		return nil, err
	}
	res := &SourcesResult{Seeds: seeds, FaultRate: faultRate}

	cleanStore, _, err := sourcesStack(w, nil)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	cleanModel, patterns, err := sourcesRun(cfg, w, cleanStore)
	if err != nil {
		return nil, fmt.Errorf("experiments: clean run: %w", err)
	}
	res.CleanSeconds = time.Since(start).Seconds()
	res.Patterns = patterns

	faults := &source.Faults{Seed: cfg.Seed, Rate: faultRate, FailFirst: 1}
	faultStore, faultObs, err := sourcesStack(w, faults)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	faultModel, _, err := sourcesRun(cfg, w, faultStore)
	if err != nil {
		return nil, fmt.Errorf("experiments: fault run (rate %.2f): %w", faultRate, err)
	}
	res.FaultSeconds = time.Since(start).Seconds()
	res.Identical = bytes.Equal(cleanModel, faultModel)

	snap := faultObs.Snapshot()
	res.FaultsInjected = snap.Counters[obs.SourceFaultsInjected]
	res.Retries = snap.Counters[obs.SourceRetries]
	res.GiveUps = snap.Counters[obs.SourceGiveUps]
	res.BackendFetches = snap.Counters[obs.SourceFetches]
	res.CacheHits = snap.Counters[obs.SourceCacheHits]
	res.CacheMisses = snap.Counters[obs.SourceCacheMisses]
	if total := res.CacheHits + res.CacheMisses; total > 0 {
		res.CacheHitRate = float64(res.CacheHits) / float64(total)
	}
	if h, ok := snap.Histograms[obs.SourceFetchSeconds]; ok {
		res.FetchP50Ms = h.Quantile(0.50) * 1000
		res.FetchP95Ms = h.Quantile(0.95) * 1000
		res.FetchP99Ms = h.Quantile(0.99) * 1000
	}

	if err := sourcesReuse(cfg, w, res); err != nil {
		return nil, err
	}
	return res, nil
}

// sourcesReuse measures cache reuse across one window-doubling step: mine
// all windows at width W through a fresh stack, snapshot the cache
// counters, re-mine at 2W, and attribute the delta to the second
// iteration.
func sourcesReuse(cfg Config, w *World, res *SourcesResult) error {
	st, reg, err := sourcesStack(w, nil)
	if err != nil {
		return err
	}
	mcfg := mining.PM(0.4)
	mcfg.MaxAbstraction = cfg.Abstraction
	mcfg.JoinWorkers = cfg.Workers

	mineAll := func(width action.Time) error {
		for _, win := range w.Span.Split(width) {
			if _, err := mining.Mine(st, w.Seeds, w.Domain.SeedType, win, mcfg); err != nil {
				return err
			}
		}
		return nil
	}

	width := 2 * action.Week
	if err := mineAll(width); err != nil {
		return fmt.Errorf("experiments: reuse iteration 1: %w", err)
	}
	s1 := reg.Snapshot()
	hits1 := s1.Counters[obs.SourceCacheHits]
	misses1 := s1.Counters[obs.SourceCacheMisses]
	res.Iter1Fetches = s1.Counters[obs.SourceFetches]
	if total := hits1 + misses1; total > 0 {
		res.Iter1HitRate = float64(hits1) / float64(total)
	}

	if err := mineAll(2 * width); err != nil {
		return fmt.Errorf("experiments: reuse iteration 2: %w", err)
	}
	s2 := reg.Snapshot()
	hits2 := s2.Counters[obs.SourceCacheHits] - hits1
	misses2 := s2.Counters[obs.SourceCacheMisses] - misses1
	res.Iter2Fetches = s2.Counters[obs.SourceFetches] - res.Iter1Fetches
	if total := hits2 + misses2; total > 0 {
		res.Iter2HitRate = float64(hits2) / float64(total)
	}
	return nil
}

// FormatSources renders the resilience experiment report.
func FormatSources(r *SourcesResult) string {
	verdict := "IDENTICAL"
	if !r.Identical {
		verdict = "DIVERGED"
	}
	header := []string{"metric", "value"}
	rows := [][]string{
		{"seeds", fmt.Sprint(r.Seeds)},
		{"fault rate", fmt.Sprintf("%.2f (+ first attempt of every type)", r.FaultRate)},
		{"patterns", fmt.Sprint(r.Patterns)},
		{"model vs fault-free", verdict},
		{"clean / fault wall", fmt.Sprintf("%.2fs / %.2fs", r.CleanSeconds, r.FaultSeconds)},
		{"faults injected", fmt.Sprint(r.FaultsInjected)},
		{"retries / give-ups", fmt.Sprintf("%d / %d", r.Retries, r.GiveUps)},
		{"backend fetches", fmt.Sprint(r.BackendFetches)},
		{"fetch p50/p95/p99", fmt.Sprintf("%.2f / %.2f / %.2f ms", r.FetchP50Ms, r.FetchP95Ms, r.FetchP99Ms)},
		{"cache hit rate", fmt.Sprintf("%.1f%% (%d hits, %d misses)", 100*r.CacheHitRate, r.CacheHits, r.CacheMisses)},
		{"iter 1 (width W)", fmt.Sprintf("%d backend fetches, %.1f%% hits", r.Iter1Fetches, 100*r.Iter1HitRate)},
		{"iter 2 (width 2W)", fmt.Sprintf("%d backend fetches, %.1f%% hits", r.Iter2Fetches, 100*r.Iter2HitRate)},
	}
	return "Source resilience (fault injection through the full stack)\n" + renderTable(header, rows)
}
