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
//	wiclean-server -trace-out traces.jsonl
//
// Endpoints:
//
//	GET  /healthz     liveness + pattern count + uptime
//	GET  /readyz      readiness: 503 while mining and once a history fetch
//	                  has failed, 200 while serving
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
//	GET  /debug/traces the 64 most recent request and mining traces
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
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"wiclean/cmd/internal/cli"
	"wiclean/internal/core"
	"wiclean/internal/logx"
	"wiclean/internal/model"
	"wiclean/internal/obs"
	"wiclean/internal/obs/trace"
	"wiclean/internal/plugin"
)

func main() {
	addr := flag.String("addr", ":8754", "listen address")
	var wf cli.Flags
	wf.Register(flag.CommandLine)
	debug := flag.Bool("debug", false, "expose /debug/vars and /debug/pprof/")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
	modelPath := flag.String("model", "", "serve a saved wiclean-model file instead of mining at startup; SIGHUP re-reads it and hot-swaps the served model")
	saveModel := flag.String("save-model", "", "after mining, save the model to this file")
	suggestQPS := flag.Float64("suggest-qps", 0, "per-client /suggest token-bucket rate in requests/second (0 = unlimited)")
	suggestBurst := flag.Float64("suggest-burst", 0, "per-client /suggest burst size (0 = 2x -suggest-qps, min 1)")
	suggestQueue := flag.Int("suggest-queue", 0, "bounded accept queue: max concurrently admitted /suggest requests; excess is shed with 429 (0 = unbounded)")
	suggestCache := flag.Int("suggest-cache", 16<<20, "/suggest response cache size in bytes, each entry charged its key, its body and a fixed per-entry overhead (0 disables caching)")
	checkpoint := flag.String("checkpoint", "", "persist refinement state here; a restarted server resumes mining from it")
	traceOut := flag.String("trace-out", "", "append exported traces to this JSONL file (analyze with wiclean-trace)")
	flag.Parse()

	lg := logx.New(os.Stderr, slog.LevelInfo)
	fatal := func(msg string, err error) {
		lg.Error(msg, slog.Any("error", err))
		os.Exit(1)
	}

	metrics := obs.NewRegistry()
	w, err := wf.Load(metrics)
	if err != nil {
		fatal("loading world", err)
	}
	if w.Skipped > 0 {
		lg.Warn("skipped action records referencing unknown entities", slog.Int("count", w.Skipped))
	}
	var traceSink *os.File
	if *traceOut != "" {
		if traceSink, err = os.OpenFile(*traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
			fatal("opening -trace-out", err)
		}
	}
	tracer := trace.New(trace.Config{
		Service:  "wiclean-server",
		Registry: metrics,
		Output:   traceSink,
	})
	cfg := wf.Config()
	sys := core.New(w.Store, cfg).WithObs(metrics).WithTracer(tracer)

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
	prov, err := model.Fingerprint(w.Reg, w.Span, sys.Config())
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
		if err := sys.UseOutcome(f.Outcome()); err != nil {
			fatal("installing model", err)
		}
		servedFP = f.Provenance.Hash
		how = "loaded from " + *modelPath
	} else {
		if *checkpoint != "" {
			sys.WithCheckpoint(model.NewCheckpointer(*checkpoint, prov, metrics))
		}
		if _, err := sys.Mine(w.Seeds, w.SeedType, w.Span); err != nil {
			fatal("mining", err)
		}
		if *saveModel != "" {
			if err := model.Save(*saveModel, model.Snapshot(sys.Outcome(), w.Reg, prov), metrics); err != nil {
				fatal("saving model", err)
			}
			lg.Info("model saved", slog.String("path", *saveModel))
		}
	}
	srv, err := plugin.NewServer(sys, wf.Workers)
	if err != nil {
		fatal("building server", err)
	}
	srv.WithTracer(tracer).WithLogger(lg)
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
	srv.WithCache(plugin.NewResponseCache(plugin.CacheConfig{MaxBytes: *suggestCache}, metrics))
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
			nsys := core.New(w.Store, cfg).WithObs(metrics).WithTracer(tracer)
			if err := nsys.UseOutcome(f.Outcome()); err != nil {
				return nil, "", fmt.Errorf("reload %s: %w", *modelPath, err)
			}
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
		slog.String("domain", wf.Domain),
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
