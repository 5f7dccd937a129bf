// Command wiclean-server is the backend of the WiClean browser plug-in: it
// mines patterns at startup, then serves the plugin API (see
// internal/plugin) — mined patterns, signaled errors, periodic windows,
// and live-edit suggestions — plus the operational surface.
//
//	wiclean-server -domain soccer -seeds 300 -addr :8754
//	wiclean-server -data data/              # serve a 'wiclean gen' world
//	wiclean-server -data data/ -source dump # ... streaming it lazily
//	wiclean-server -data data/ -model model.json      # warm start, no mining
//	wiclean-server -data data/ -save-model model.json # persist after mining
//	wiclean-server -data data/ -checkpoint mine.ckpt  # resumable mining
//	wiclean-server -debug   # adds /debug/vars and /debug/pprof/
//	wiclean-server -trace-out traces.jsonl -trace-sample 0.1
//
// Endpoints:
//
//	GET  /healthz     liveness + pattern count + uptime
//	GET  /readyz      readiness: 503 while mining, 200 once serving
//	GET  /version     build info (module, version, Go) + uptime
//	GET  /metrics     Prometheus text exposition of the pipeline metrics
//	GET  /patterns    mined patterns with windows, frequencies and DOT graphs
//	GET  /errors      signaled partial edits with suggestions
//	GET  /periodic    patterns recurring with a regular period
//	POST /suggest     advice for a live edit:
//	                  {"subject": "...", "op": "+", "label": "...",
//	                   "object": "...", "at": 123456}
//	GET  /history     the revision store in JSONL dump format — point
//	                  another instance's "-source http" here
//	GET  /debug/traces ring of recently exported traces (see -trace-sample)
//	GET  /debug/vars  expvar JSON incl. the metrics snapshot (-debug only)
//	GET  /debug/pprof/ CPU/heap/goroutine profiles (-debug only)
//
// The listener binds before mining starts: /healthz answers immediately
// while /readyz and the API answer 503 until the model is mined or
// warm-started. Every request runs under a request-scoped trace that
// joins an inbound W3C traceparent (so a chained "-source http" mine
// yields one stitched cross-process trace); -trace-out appends each
// exported trace as one JSON line for offline analysis with
// wiclean-trace. Logs are structured JSON (log/slog) on stderr, each
// record carrying the trace/span IDs of its request. The server shuts
// down gracefully on SIGINT/SIGTERM, draining in-flight requests for up
// to -drain seconds.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"wiclean/internal/action"
	"wiclean/internal/core"
	"wiclean/internal/dump"
	"wiclean/internal/logx"
	"wiclean/internal/mining"
	"wiclean/internal/model"
	"wiclean/internal/obs"
	"wiclean/internal/obs/trace"
	"wiclean/internal/plugin"
	"wiclean/internal/source"
	"wiclean/internal/synth"
	"wiclean/internal/taxonomy"
	"wiclean/internal/windows"
)

// world is the mined input: a source-stack store, the registry, seeds and
// the revision span.
type world struct {
	store    mining.Store
	reg      *taxonomy.Registry
	seeds    []taxonomy.EntityID
	seedType taxonomy.Type
	span     action.Window
}

// loadWorld resolves -data / -domain plus the -source* flags into the
// store the server mines and serves. It mirrors the wiclean CLI's loader:
// registry and seeds come from the data directory (or the synthetic
// generator), actions from the selected source.
func loadWorld(data, domain string, seeds int, seed uint64, opts source.Options, metrics *obs.Registry, lg *slog.Logger) (*world, error) {
	w := &world{}
	var mem *dump.History
	kind := opts.Kind
	if kind == "" {
		kind = source.KindMemory
	}

	if data != "" {
		uf, err := os.Open(filepath.Join(data, "universe.jsonl"))
		if err != nil {
			return nil, err
		}
		w.reg, err = dump.ReadUniverse(uf)
		uf.Close()
		if err != nil {
			return nil, err
		}
		sf, err := os.Open(filepath.Join(data, "seeds.txt"))
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(sf)
		for sc.Scan() {
			name := strings.TrimSpace(sc.Text())
			if name == "" {
				continue
			}
			id, ok := w.reg.Lookup(name)
			if !ok {
				sf.Close()
				return nil, fmt.Errorf("seeds.txt references unknown entity %q", name)
			}
			w.seeds = append(w.seeds, id)
		}
		err = sc.Err()
		sf.Close()
		if err != nil {
			return nil, err
		}
		if len(w.seeds) == 0 {
			return nil, fmt.Errorf("seeds.txt holds no seed entities")
		}
		w.seedType = w.reg.TypeOf(w.seeds[0])
		switch kind {
		case source.KindMemory:
			af, err := os.Open(filepath.Join(data, "actions.jsonl"))
			if err != nil {
				return nil, err
			}
			recs, err := dump.ReadActions(af)
			af.Close()
			if err != nil {
				return nil, err
			}
			mem = dump.NewHistory(w.reg)
			if skipped := mem.IngestRecords(recs); skipped > 0 {
				lg.Warn("skipped action records referencing unknown entities", slog.Int("count", skipped))
			}
			w.span = mem.Span()
		case source.KindDump:
			if opts.Path == "" {
				opts.Path = filepath.Join(data, "actions.jsonl")
			}
		}
	} else {
		if kind == source.KindDump {
			return nil, fmt.Errorf("-source dump needs -data")
		}
		d, err := synth.DomainByName(domain)
		if err != nil {
			return nil, err
		}
		p := synth.DefaultParams(d, seeds)
		p.Seed = seed
		sw, err := synth.Generate(p)
		if err != nil {
			return nil, err
		}
		w.reg, w.seeds, w.seedType = sw.Reg, sw.Seeds, d.SeedType
		if kind == source.KindMemory {
			mem = sw.History
			w.span = sw.Span
		}
	}

	switch kind {
	case source.KindDump:
		f, err := os.Open(opts.Path)
		if err != nil {
			return nil, err
		}
		span, n, err := source.ScanSpan(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return nil, fmt.Errorf("%s holds no action records", opts.Path)
		}
		w.span = span
	case source.KindHTTP:
		if opts.URL == "" {
			return nil, fmt.Errorf("-source http needs -source-url")
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		span, err := source.NewHTTP(opts.URL, w.reg, nil).Span(ctx)
		if err != nil {
			return nil, fmt.Errorf("fetching remote span: %w", err)
		}
		w.span = span
	}

	opts.Obs = metrics
	st, err := opts.Store(context.Background(), mem, w.reg)
	if err != nil {
		return nil, err
	}
	w.store = st
	return w, nil
}

func main() {
	addr := flag.String("addr", ":8754", "listen address")
	data := flag.String("data", "", "directory written by 'wiclean gen' (overrides -domain)")
	domain := flag.String("domain", "soccer", "synthetic domain to serve")
	seeds := flag.Int("seeds", 300, "seed entity count")
	seed := flag.Uint64("seed", 1, "generator random seed")
	levels := flag.Int("abstraction", 1, "type-hierarchy levels to mine at")
	workers := flag.Int("workers", 0, "parallel workers: join workers inside each window and detection workers (0 = all cores)")
	debug := flag.Bool("debug", false, "expose /debug/vars and /debug/pprof/")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
	modelPath := flag.String("model", "", "serve a saved wiclean-model file instead of mining at startup; SIGHUP re-reads it and hot-swaps the served model")
	saveModel := flag.String("save-model", "", "after mining, save the model to this file")
	suggestQPS := flag.Float64("suggest-qps", 0, "per-client /suggest token-bucket rate in requests/second (0 = unlimited)")
	suggestBurst := flag.Float64("suggest-burst", 0, "per-client /suggest burst size (0 = 2x -suggest-qps, min 1)")
	suggestQueue := flag.Int("suggest-queue", 0, "bounded accept queue: max concurrently admitted /suggest requests; excess is shed with 429 (0 = unbounded)")
	suggestCache := flag.Int("suggest-cache", 16<<20, "memory tier of the /suggest response cache in bytes (0 disables caching)")
	suggestCacheDir := flag.String("suggest-cache-dir", "", "optional disk tier of the /suggest response cache (promote-on-hit)")
	checkpoint := flag.String("checkpoint", "", "persist refinement state here; a restarted server resumes mining from it")
	checkpointEvery := flag.Int("checkpoint-every", 0, "checkpoint every Nth refinement iteration (0 = every)")
	traceOut := flag.String("trace-out", "", "append exported traces to this JSONL file (analyze with wiclean-trace)")
	traceSample := flag.Float64("trace-sample", 1.0, "head-sampling keep fraction in [0,1]; errored and slow traces always export")
	traceSlow := flag.Duration("trace-slow", time.Second, "always export traces at least this slow (0 disables the slow rule)")
	opts := source.DefaultOptions()
	opts.RegisterFlags(flag.CommandLine)
	flag.Parse()

	lg := logx.New(os.Stderr, slog.LevelInfo)
	fatal := func(msg string, err error) {
		lg.Error(msg, slog.Any("error", err))
		os.Exit(1)
	}

	metrics := obs.NewRegistry()
	w, err := loadWorld(*data, *domain, *seeds, *seed, opts, metrics, lg)
	if err != nil {
		fatal("loading world", err)
	}
	var traceSink *os.File
	if *traceOut != "" {
		if traceSink, err = os.OpenFile(*traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
			fatal("opening -trace-out", err)
		}
	}
	tracer := trace.New(trace.Config{
		Service:       "wiclean-server",
		Registry:      metrics,
		SampleRate:    *traceSample,
		SlowThreshold: *traceSlow,
		Output:        traceSink,
	})
	cfg := windows.Defaults()
	cfg.Mining = mining.PM(cfg.InitialTau)
	cfg.Mining.MaxAbstraction = *levels
	cfg.Mining.JoinWorkers = *workers

	sys := core.New(w.store, cfg).WithObs(metrics).WithTracer(tracer)

	// Bind the port before mining: /healthz is alive from the first
	// moment, /readyz and the API answer 503 until the gate flips.
	gate := plugin.NewGate()
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           gate,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		// Generous write timeout: /debug/pprof/profile streams for 30s by
		// default and /errors can be large on big worlds.
		WriteTimeout: 120 * time.Second,
		IdleTimeout:  120 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	lg.Info("listening, warming up", slog.String("addr", *addr))

	start := time.Now()
	// The provenance fingerprint guards model and checkpoint files: it
	// hashes the universe, the revision span and the semantic mining
	// knobs, so it matches exactly when a file was mined from these inputs.
	prov, err := model.Fingerprint(w.reg, w.span, sys.Config())
	if err != nil {
		fatal("fingerprinting", err)
	}

	how := "mined"
	// The served model's provenance hash keys the /suggest response
	// cache; a hot reload flips it, invalidating every cached entry.
	servedFP := prov.Hash
	if *modelPath != "" {
		// Warm start: serve a persisted model without invoking the miner.
		// Verify rejects a model recorded against different data or
		// settings instead of silently serving stale patterns.
		f, err := model.Load(*modelPath, metrics)
		if err != nil {
			fatal("loading model", err)
		}
		if err := f.Verify(prov); err != nil {
			fatal("verifying model", err)
		}
		sys.UseOutcome(f.Outcome())
		servedFP = f.Provenance.Hash
		how = "loaded from " + *modelPath
	} else {
		if *checkpoint != "" {
			sys.WithCheckpoint(model.NewCheckpointer(*checkpoint, prov, metrics), *checkpointEvery)
		}
		if _, err := sys.Mine(w.seeds, w.seedType, w.span); err != nil {
			fatal("mining", err)
		}
		if *saveModel != "" {
			if err := model.Save(*saveModel, model.Snapshot(sys.Outcome(), w.reg, prov), metrics); err != nil {
				fatal("saving model", err)
			}
			lg.Info("model saved", slog.String("path", *saveModel))
		}
	}
	srv, err := plugin.NewServer(sys, *workers)
	if err != nil {
		fatal("building server", err)
	}
	srv.WithTracer(tracer).WithLogger(lg, *traceSlow)
	srv.WithFingerprint(servedFP)
	if *suggestQPS > 0 {
		burst := *suggestBurst
		if burst <= 0 {
			burst = 2 * *suggestQPS
		}
		srv.WithLimiter(plugin.NewLimiter(plugin.LimiterConfig{
			Rate:  *suggestQPS,
			Burst: burst,
		}, metrics))
	}
	srv.WithQueue(plugin.NewAcceptQueue(*suggestQueue, metrics))
	if *suggestCacheDir != "" {
		// Disk-tier I/O errors degrade to cache misses by design, so a
		// missing directory would silently disable the tier — create it
		// up front and fail loudly if we cannot.
		if err := os.MkdirAll(*suggestCacheDir, 0o755); err != nil {
			fatal("creating -suggest-cache-dir", err)
		}
	}
	srv.WithCache(plugin.NewResponseCache(plugin.CacheConfig{
		MaxBytes: *suggestCache,
		Dir:      *suggestCacheDir,
	}, metrics))
	if *modelPath != "" {
		// Hot reload: SIGHUP re-reads -model and atomically swaps the
		// served system. The file must describe the same universe the
		// server loaded (entity IDs must resolve against the serving
		// registry), but span and mining knobs may differ — that is the
		// point of swapping in a re-mined model. The new fingerprint
		// invalidates the /suggest response cache; a failed load keeps
		// the old model serving.
		reload := func() (*core.System, string, error) {
			f, err := model.Load(*modelPath, metrics)
			if err != nil {
				return nil, "", err
			}
			if f.Provenance.Universe != prov.Universe {
				return nil, "", fmt.Errorf("reload %s: model universe %s does not match serving universe %s",
					*modelPath, f.Provenance.Universe, prov.Universe)
			}
			nsys := core.New(w.store, cfg).WithObs(metrics).WithTracer(tracer)
			nsys.UseOutcome(f.Outcome())
			return nsys, f.Provenance.Hash, nil
		}
		stopReload := srv.ReloadOnSIGHUP(reload, lg)
		defer stopReload()
	}
	if *debug {
		srv.EnableDebug()
	}
	gate.SetReady(srv.Handler())
	lg.Info("ready",
		slog.Int("patterns", len(sys.Outcome().Discovered)),
		slog.String("how", how),
		slog.String("domain", *domain),
		slog.Duration("startup", time.Since(start).Round(time.Millisecond)),
		slog.String("addr", *addr),
		slog.Bool("debug", *debug),
	)

	// Serve until SIGINT/SIGTERM, then drain in-flight requests.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	select {
	case err := <-errCh:
		fatal("serving", err)
	case <-ctx.Done():
	}
	stop()
	lg.Info("shutting down", slog.Duration("drain", *drain))
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		lg.Warn("forced shutdown", slog.Any("error", err))
		_ = httpSrv.Close()
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		lg.Error("listener failed", slog.Any("error", err))
	}
	if traceSink != nil {
		_ = traceSink.Close()
	}
	lg.Info("bye")
}
