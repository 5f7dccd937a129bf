package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"wiclean/internal/core"
	"wiclean/internal/loadgen"
	"wiclean/internal/mining"
	"wiclean/internal/obs"
	"wiclean/internal/plugin"
	"wiclean/internal/synth"
	"wiclean/internal/windows"
)

// ServingRow is one load scenario of the serving experiment.
type ServingRow struct {
	Scenario     string  `json:"scenario"`
	Mode         string  `json:"mode"` // "closed" or "open"
	OfferedQPS   float64 `json:"offered_qps,omitempty"`
	Concurrency  int     `json:"concurrency"`
	Sent         int64   `json:"sent"`
	OK           int64   `json:"ok"`
	Shed         int64   `json:"shed_429"`
	ShedHinted   int64   `json:"shed_with_retry_after"`
	OKPerSec     float64 `json:"ok_per_second"`
	ShedRate     float64 `json:"shed_rate"`
	P50Millis    float64 `json:"p50_ms"`
	P99Millis    float64 `json:"p99_ms"`
	CacheHitRate float64 `json:"cache_hit_rate"`
}

// ServingResult is the high-QPS serving experiment's report
// (BENCH_6.json): the acceptance claims of the serving layer measured
// through cmd/wiclean-loadgen's engine against an in-process server.
type ServingResult struct {
	Seeds           int          `json:"seeds"`
	Patterns        int          `json:"patterns"`
	MixSize         int          `json:"mix_size"`
	ByteIdentical   bool         `json:"cache_byte_identical"`
	SwapZeroDrops   bool         `json:"swap_zero_drops"`
	SwapInvalidated bool         `json:"swap_invalidated_cache"`
	Rows            []ServingRow `json:"rows"`
}

// servingRowDuration is each load scenario's generation window — long
// enough for thousands of in-process requests, short enough that the
// four scenarios stay a sub-minute experiment.
const servingRowDuration = time.Second

// suggestBodies builds n distinct /suggest bodies from real actions of
// the world's seed entities, so every request resolves against the
// registry and exercises the assistant's index like a live edit would.
func suggestBodies(w *World, n int) ([]string, error) {
	seen := map[string]bool{}
	bodies := make([]string, 0, n)
	for _, a := range w.Store.ActionsOf(w.Seeds, w.Span) {
		b, err := json.Marshal(plugin.SuggestRequest{
			Subject: w.Reg.Name(a.Edge.Src),
			Op:      a.Op.String(),
			Label:   string(a.Edge.Label),
			Object:  w.Reg.Name(a.Edge.Dst),
			At:      int64(a.T),
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: serving bodies: %w", err)
		}
		if seen[string(b)] {
			continue
		}
		seen[string(b)] = true
		bodies = append(bodies, string(b))
		if len(bodies) == n {
			break
		}
	}
	if len(bodies) < n {
		return nil, fmt.Errorf("experiments: serving: world yields only %d distinct edits, need %d", len(bodies), n)
	}
	return bodies, nil
}

// servingServer warm-starts one plugin server over the mined outcome
// with its own metrics registry, so every scenario reads isolated
// counters. Configure the serving layer on the returned server before
// issuing requests.
func servingServer(w *World, o *windows.Outcome, wcfg windows.Config, workers int) (*plugin.Server, *obs.Registry, error) {
	reg := obs.NewRegistry()
	sys := core.New(w.Store, wcfg).WithObs(reg)
	sys.UseOutcome(o)
	srv, err := plugin.NewServer(sys, workers)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: serving server: %w", err)
	}
	return srv, reg, nil
}

// postOnce issues one /suggest request; any answer but a 200 is an error.
func postOnce(url, body string) ([]byte, error) {
	resp, err := http.Post(url+"/suggest", "application/json", strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("answered %d: %s", resp.StatusCode, b)
	}
	return b, nil
}

// cacheHitRate reads hits/(hits+misses) of the /suggest response cache
// from a registry snapshot.
func cacheHitRate(snap obs.Snapshot) float64 {
	hits := float64(snap.Counters[obs.SuggestCacheHits])
	misses := float64(snap.Counters[obs.SuggestCacheMisses])
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}

// Serving measures the high-QPS /suggest serving layer end to end and
// enforces its acceptance claims:
//
//  1. byte identity — every body in the mix answers the exact same
//     bytes from a cache-off server, a cold cache, and a warm cache;
//  2. a repeated-request mix on a warm cache serves ≥50% hits;
//  3. an open-loop overload far past the configured per-client rate is
//     shed with 429s that all carry Retry-After, while served (200)
//     p99 stays bounded instead of collapsing;
//  4. a model hot-swap under sustained load drops zero requests, keeps
//     bytes identical (the re-loaded model is the same model), and
//     invalidates the response cache via the fingerprint flip.
//
// Violations are returned as errors so wiclean-bench and the CI serving
// job fail loudly rather than record a regression.
func Serving(cfg Config, seeds int) (*ServingResult, error) {
	w, err := BuildWorld(cfg, synth.Soccer(), seeds)
	if err != nil {
		return nil, err
	}
	wcfg := windows.Defaults()
	wcfg.Mining = mining.PM(wcfg.InitialTau)
	wcfg.Mining.MaxAbstraction = cfg.Abstraction
	wcfg.Mining.JoinWorkers = cfg.Workers
	wcfg.Obs = cfg.Obs

	mineSys := core.New(w.Store, wcfg).WithObs(cfg.Obs)
	o, err := mineSys.Mine(w.Seeds, w.Domain.SeedType, w.Span)
	if err != nil {
		return nil, fmt.Errorf("experiments: serving mine: %w", err)
	}
	res := &ServingResult{Seeds: seeds, Patterns: len(o.Discovered), MixSize: 16}
	bodies, err := suggestBodies(w, res.MixSize)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()

	// Cache-off baseline server: the golden responses.
	srvOff, _, err := servingServer(w, o, wcfg, cfg.Workers)
	if err != nil {
		return nil, err
	}
	tsOff := httptest.NewServer(srvOff.Handler())
	defer tsOff.Close()
	golden := make([][]byte, len(bodies))
	for i, b := range bodies {
		resp, err := postOnce(tsOff.URL, b)
		if err != nil {
			return nil, fmt.Errorf("experiments: serving golden request %d: %w", i, err)
		}
		golden[i] = resp
	}

	// Cache-on server: cold then warm must match the golden bytes.
	srvOn, regOn, err := servingServer(w, o, wcfg, cfg.Workers)
	if err != nil {
		return nil, err
	}
	srvOn.WithFingerprint("serving-a").
		WithCache(plugin.NewResponseCache(plugin.CacheConfig{MaxBytes: 16 << 20}, regOn))
	tsOn := httptest.NewServer(srvOn.Handler())
	defer tsOn.Close()
	res.ByteIdentical = true
	for pass := 0; pass < 2; pass++ { // pass 0 fills the cache, pass 1 hits it
		for i, b := range bodies {
			resp, err := postOnce(tsOn.URL, b)
			if err != nil {
				return nil, fmt.Errorf("experiments: serving cached request %d: %w", i, err)
			}
			if !bytes.Equal(resp, golden[i]) {
				res.ByteIdentical = false
			}
		}
	}
	if !res.ByteIdentical {
		return res, fmt.Errorf("experiments: serving: cached /suggest bytes diverge from the cache-off responses")
	}

	// Scenario 1: closed loop, no cache — the recompute baseline.
	offRun, err := loadgen.Run(ctx, loadgen.Config{
		URL: tsOff.URL, Bodies: bodies, Concurrency: 8, Duration: servingRowDuration,
	})
	if err != nil {
		return res, err
	}
	res.Rows = append(res.Rows, servingRow("closed / cache off", 0, 8, offRun, 0))

	// Scenario 2: the same closed loop on the warm cache — the hit-rate
	// claim. The cache was warmed above, so the steady-state rate is the
	// honest number a long-running server would see.
	preSnap := regOn.Snapshot()
	onRun, err := loadgen.Run(ctx, loadgen.Config{
		URL: tsOn.URL, Bodies: bodies, Concurrency: 8, Duration: servingRowDuration,
	})
	if err != nil {
		return res, err
	}
	onRate := cacheHitRate(obs.Snapshot{Counters: map[string]int64{
		obs.SuggestCacheHits:   regOn.Snapshot().Counters[obs.SuggestCacheHits] - preSnap.Counters[obs.SuggestCacheHits],
		obs.SuggestCacheMisses: regOn.Snapshot().Counters[obs.SuggestCacheMisses] - preSnap.Counters[obs.SuggestCacheMisses],
	}})
	res.Rows = append(res.Rows, servingRow("closed / cache on", 0, 8, onRun, onRate))
	if onRate < 0.5 {
		return res, fmt.Errorf("experiments: serving: repeated-mix cache hit rate %.2f < 0.50", onRate)
	}

	// Scenario 3: open-loop overload at 5× the per-client rate. The
	// limiter sheds the excess with hinted 429s; the queue bounds what is
	// concurrently in flight, which is what keeps served p99 bounded.
	srvLim, regLim, err := servingServer(w, o, wcfg, cfg.Workers)
	if err != nil {
		return res, err
	}
	srvLim.WithFingerprint("serving-a").
		WithCache(plugin.NewResponseCache(plugin.CacheConfig{MaxBytes: 16 << 20}, regLim)).
		WithLimiter(plugin.NewLimiter(plugin.LimiterConfig{Rate: 200, Burst: 50}, regLim)).
		WithQueue(plugin.NewAcceptQueue(16, regLim))
	tsLim := httptest.NewServer(srvLim.Handler())
	defer tsLim.Close()
	limRun, err := loadgen.Run(ctx, loadgen.Config{
		URL: tsLim.URL, Bodies: bodies, Concurrency: 64, QPS: 1000, Duration: servingRowDuration,
	})
	if err != nil {
		return res, err
	}
	res.Rows = append(res.Rows, servingRow("open / 5x over limit", 1000, 64, limRun, cacheHitRate(regLim.Snapshot())))
	if limRun.Shed == 0 {
		return res, fmt.Errorf("experiments: serving: overload run shed nothing at 5x the configured rate")
	}
	if limRun.ShedHinted != limRun.Shed {
		return res, fmt.Errorf("experiments: serving: %d of %d 429s carry no Retry-After", limRun.Shed-limRun.ShedHinted, limRun.Shed)
	}
	if limRun.OK == 0 {
		return res, fmt.Errorf("experiments: serving: overload run served nothing — shedding everything is collapse too")
	}
	if limRun.P99Millis > 1000 {
		return res, fmt.Errorf("experiments: serving: served p99 %.0fms under overload — latency is not bounded", limRun.P99Millis)
	}

	// Scenario 4: hot-swap under sustained closed-loop load. The swapped
	// model is byte-identical, so any divergence or non-200 is a dropped
	// or corrupted request.
	missesBefore := regOn.Snapshot().Counters[obs.SuggestCacheMisses]
	swapDone := make(chan error, 1)
	go func() {
		time.Sleep(servingRowDuration / 3)
		sys := core.New(w.Store, wcfg).WithObs(regOn)
		sys.UseOutcome(o)
		swapDone <- srvOn.Swap(sys, "serving-b")
	}()
	swapRun, err := loadgen.Run(ctx, loadgen.Config{
		URL: tsOn.URL, Bodies: bodies, Concurrency: 8, Duration: servingRowDuration,
	})
	if err != nil {
		return res, err
	}
	if err := <-swapDone; err != nil {
		return res, fmt.Errorf("experiments: serving swap: %w", err)
	}
	res.Rows = append(res.Rows, servingRow("closed / swap mid-run", 0, 8, swapRun, 0))
	// Requests the loadgen's own deadline cut off mid-flight are client
	// cancellations, not server drops; everything else must be a 200.
	res.SwapZeroDrops = swapRun.Shed == 0 && swapRun.OtherErrors == 0 &&
		swapRun.OK+swapRun.CutOff == swapRun.Sent
	if !res.SwapZeroDrops {
		return res, fmt.Errorf("experiments: serving: swap run dropped requests (%d sent, %d ok, %d cut off, %d shed, %d errors)",
			swapRun.Sent, swapRun.OK, swapRun.CutOff, swapRun.Shed, swapRun.OtherErrors)
	}
	res.SwapInvalidated = regOn.Snapshot().Counters[obs.SuggestCacheMisses] > missesBefore
	if !res.SwapInvalidated {
		return res, fmt.Errorf("experiments: serving: fingerprint flip did not invalidate the response cache")
	}
	for i, b := range bodies {
		resp, err := postOnce(tsOn.URL, b)
		if err != nil {
			return res, fmt.Errorf("experiments: serving post-swap request %d: %w", i, err)
		}
		if !bytes.Equal(resp, golden[i]) {
			return res, fmt.Errorf("experiments: serving: post-swap bytes diverge for request %d", i)
		}
	}
	return res, nil
}

// servingRow folds one loadgen result into a report row.
func servingRow(scenario string, qps float64, conc int, r *loadgen.Result, hitRate float64) ServingRow {
	return ServingRow{
		Scenario:     scenario,
		Mode:         r.Mode,
		OfferedQPS:   qps,
		Concurrency:  conc,
		Sent:         r.Sent,
		OK:           r.OK,
		Shed:         r.Shed,
		ShedHinted:   r.ShedHinted,
		OKPerSec:     r.OKPerSec,
		ShedRate:     r.ShedRate,
		P50Millis:    r.P50Millis,
		P99Millis:    r.P99Millis,
		CacheHitRate: hitRate,
	}
}

// FormatServing renders the serving experiment report.
func FormatServing(r *ServingResult) string {
	header := []string{"scenario", "mode", "sent", "ok", "shed", "ok/s", "shed rate", "hit rate", "p50", "p99"}
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Scenario,
			row.Mode,
			fmt.Sprint(row.Sent),
			fmt.Sprint(row.OK),
			fmt.Sprint(row.Shed),
			fmt.Sprintf("%.0f", row.OKPerSec),
			fmt.Sprintf("%.2f", row.ShedRate),
			fmt.Sprintf("%.2f", row.CacheHitRate),
			fmt.Sprintf("%.2fms", row.P50Millis),
			fmt.Sprintf("%.2fms", row.P99Millis),
		})
	}
	verdict := func(ok bool) string {
		if ok {
			return "OK"
		}
		return "FAILED"
	}
	return fmt.Sprintf("High-QPS serving (%d seeds, %d patterns, %d-body mix) — byte identity %s, swap zero-drops %s, swap invalidation %s\n",
		r.Seeds, r.Patterns, r.MixSize,
		verdict(r.ByteIdentical), verdict(r.SwapZeroDrops), verdict(r.SwapInvalidated)) +
		renderTable(header, rows)
}
