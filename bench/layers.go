package main

import (
	"runtime"
	"sort"
	"time"

	"wiclean/internal/obs"
)

// Program counters, read by name from the obs registry's snapshot. A name
// the registry never created reads as 0 and is listed as absent in the
// run's facts, so a counter a later change renames or deletes shows up
// there instead of breaking the benchmark.
const (
	cMiningCandidates  = "wiclean_mining_candidates_total"
	cMiningAdmitted    = "wiclean_mining_patterns_admitted_total"
	cMiningTypePulls   = "wiclean_mining_type_pulls_total"
	cPlannedHash       = `wiclean_relational_planner_decisions_total{strategy="hash"}`
	cPlannedNested     = `wiclean_relational_planner_decisions_total{strategy="nested-loop"}`
	cInternedProbeHits = "wiclean_relational_interned_probe_hits_total"
	cSourceFetches     = "wiclean_source_fetches_total"
	cSourceCacheHits   = "wiclean_source_cache_hits_total"
	cSourceCacheMisses = "wiclean_source_cache_misses_total"
	cModelSaveBytes    = "wiclean_model_save_bytes_total"
	cModelLoadBytes    = "wiclean_model_load_bytes_total"
	cDetectRuns        = "wiclean_detect_runs_total"
	cDetectPartials    = "wiclean_detect_partials_total"
	cDetectRowsScanned = "wiclean_detect_rows_scanned_total"
	cAssistRequests    = "wiclean_assist_requests_total"
	cAssistCandidates  = "wiclean_assist_index_candidates_total"
	cAssistAdvices     = "wiclean_assist_advices_total"
)

// counters sums counter deltas over pairs of snapshots of one registry.
type counters struct {
	delta  map[string]int64
	absent map[string]bool
}

func newCounters() *counters {
	return &counters{delta: map[string]int64{}, absent: map[string]bool{}}
}

// add adds what every counter counted between before and after.
func (c *counters) add(before, after obs.Snapshot) {
	for name, v := range after.Counters {
		c.delta[name] += v - before.Counters[name]
	}
}

func (c *counters) get(name string) float64 {
	v, ok := c.delta[name]
	if !ok {
		c.absent[name] = true
	}
	return float64(v)
}

func (c *counters) absentNames() []string {
	out := make([]string, 0, len(c.absent))
	for n := range c.absent {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// sourceLayers fills the source layer's metrics from the fetch spans of a
// phase and its registry counters, per operation.
func sourceLayers(l map[string]float64, fetches []spanRecord, c *counters, ops float64) {
	ds := durations(fetches)
	l["source.fetch_calls"] = float64(len(fetches))
	l["source.fetch_busy_s"] = sum(ds).Seconds() / ops
	l["source.fetch_p50_ms"] = ms(median(ds))
	l["source.fetch_p99_ms"] = ms(quantile(ds, 0.99))
	hits := c.get(cSourceCacheHits)
	l["source.cache_hit_ratio"] = ratio(hits, hits+c.get(cSourceCacheMisses))
	l["source.backend_fetches"] = c.get(cSourceFetches) / ops
	l["source.fetches_per_request"] = float64(len(fetches)) / ops
}

// memDelta sums the Go runtime's allocation and collection work over
// pairs of memory statistics.
type memDelta struct {
	allocBytes, pauseNs uint64
	gcs                 uint32
}

func (m *memDelta) add(m0, m1 runtime.MemStats) {
	m.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	m.pauseNs += m1.PauseTotalNs - m0.PauseTotalNs
	m.gcs += m1.NumGC - m0.NumGC
}

// runtimeLayers fills the Go runtime's allocation and collection metrics,
// per operation.
func runtimeLayers(l map[string]float64, m memDelta, ops float64) {
	l["runtime.alloc_mb"] = float64(m.allocBytes) / (1 << 20) / ops
	l["runtime.gc_cycles"] = float64(m.gcs) / ops
	l["runtime.gc_pause_ms"] = float64(m.pauseNs) / float64(time.Millisecond) / ops
}

func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// spanSeconds sums the durations of the named spans.
func spanSeconds(spans []spanRecord, name string) float64 {
	return sum(durations(named(spans, name))).Seconds()
}

// spanAllocMiB sums the bytes allocated during the named stage spans.
func spanAllocMiB(spans []spanRecord, name string) float64 {
	var b uint64
	for _, s := range named(spans, name) {
		b += s.Alloc
	}
	return float64(b) / (1 << 20)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
