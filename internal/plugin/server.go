// Package plugin implements the WiClean browser-plug-in contract: an HTTP
// server exposing the mined patterns, the signaled errors, the periodic
// windows and the live-edit suggestion endpoint — and a typed client for
// the extension side. The paper ships WiClean "as a web browser extension,
// with backend in Python"; this is that backend's API surface.
package plugin

import (
	"bytes"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"wiclean/internal/action"
	"wiclean/internal/assist"
	"wiclean/internal/core"
	"wiclean/internal/detect"
	"wiclean/internal/obs"
	"wiclean/internal/obs/trace"
	"wiclean/internal/source"
	"wiclean/internal/taxonomy"
)

// PatternInfo is one mined pattern as served to the extension.
type PatternInfo struct {
	Pattern     string  `json:"pattern"`
	Dot         string  `json:"dot"` // Graphviz rendering of g_p (Figure 2)
	Frequency   float64 `json:"frequency"`
	SourceCount int     `json:"source_count"`
	WindowStart int64   `json:"window_start"`
	WindowEnd   int64   `json:"window_end"`
	WidthDays   int64   `json:"width_days"`
	Tau         float64 `json:"tau"`
}

// ErrorInfo is one signaled potential error.
type ErrorInfo struct {
	Pattern     string   `json:"pattern"`
	WindowStart int64    `json:"window_start"`
	WindowEnd   int64    `json:"window_end"`
	Subject     string   `json:"subject"`
	Suggestions []string `json:"suggestions"`
	FullCount   int      `json:"full_realizations"`
}

// PeriodicInfo is one periodically recurring pattern.
type PeriodicInfo struct {
	Pattern     string `json:"pattern"`
	PeriodDays  int64  `json:"period_days"`
	Occurrences int    `json:"occurrences"`
	NextStart   int64  `json:"next_window_start"`
}

// SuggestRequest is the live-edit description posted to /suggest.
type SuggestRequest struct {
	Subject string `json:"subject"`
	Op      string `json:"op"` // "+" or "-"; empty means "+", anything else is a 400
	Label   string `json:"label"`
	Object  string `json:"object"`
	At      int64  `json:"at"`
}

// AdviceInfo is the assistant's response for one matching pattern.
type AdviceInfo struct {
	Pattern   string   `json:"pattern"`
	Frequency float64  `json:"frequency"`
	Done      []string `json:"already_done"`
	Missing   []string `json:"suggested"`
}

// serveState is the swappable serving core: everything a request handler
// derives from one mined model. Handlers load the state pointer exactly
// once at entry, so a hot reload (see Swap) flips new requests onto the
// new model while in-flight requests finish coherently on the state they
// started with — no locks on the request path, no dropped requests.
type serveState struct {
	sys         *core.System
	reg         *taxonomy.Registry
	assistant   *assist.Assistant
	reports     []*detect.Report
	fingerprint string // model provenance hash; keys the response cache
}

// buildState eagerly computes the error reports and the assistant for a
// mined (or warm-started) system — the expensive part of both NewServer
// and Swap, done before any request can observe the state.
func buildState(sys *core.System, workers int, fingerprint string) (*serveState, error) {
	if sys.Outcome() == nil {
		return nil, fmt.Errorf("plugin: serving requires a mined system")
	}
	reports, err := sys.DetectErrors(workers)
	if err != nil {
		return nil, err
	}
	assistant, err := sys.Assistant()
	if err != nil {
		return nil, err
	}
	return &serveState{
		sys:         sys,
		reg:         sys.Registry(),
		assistant:   assistant,
		reports:     reports,
		fingerprint: fingerprint,
	}, nil
}

// Server serves a mined WiClean system over HTTP.
type Server struct {
	state     atomic.Pointer[serveState]
	workers   int           // detection parallelism for state rebuilds
	obs       *obs.Registry // the system's registry (possibly nil)
	tracer    *trace.Tracer // per-request traces (possibly nil)
	log       *slog.Logger  // access/slow/panic logs (possibly nil)
	slowAfter time.Duration // slow-request log threshold; <=0 disables
	start     time.Time
	debug     bool

	// The high-QPS serving layer in front of /suggest, all optional:
	// admission (limiter + accept queue), the layered response cache,
	// and singleflight coalescing of identical in-flight computations.
	limiter *Limiter
	queue   *AcceptQueue
	cache   *ResponseCache
	flights *flightGroup
}

// NewServer wraps a system whose Mine stage has already run; it eagerly
// computes the error reports and the assistant. The server reuses the
// system's metrics registry (see core.System.WithObs) for its HTTP
// metrics and the /metrics endpoint.
func NewServer(sys *core.System, workers int) (*Server, error) {
	st, err := buildState(sys, workers, "")
	if err != nil {
		return nil, err
	}
	s := &Server{
		workers: workers,
		obs:     sys.Obs(),
		start:   time.Now(),
		flights: newFlightGroup(sys.Obs()),
	}
	s.state.Store(st)
	return s, nil
}

// WithFingerprint stamps the serving model's provenance hash onto the
// current state — the cache-key prefix that invalidates every cached
// response when a different model is swapped in. Call before serving.
func (s *Server) WithFingerprint(fp string) *Server {
	st := *s.state.Load()
	st.fingerprint = fp
	s.state.Store(&st)
	return s
}

// WithLimiter installs per-client token-bucket admission on /suggest;
// nil (the default) admits everything.
func (s *Server) WithLimiter(l *Limiter) *Server {
	s.limiter = l
	return s
}

// WithQueue bounds concurrently admitted /suggest computations; requests
// beyond the bound are shed with 429/Retry-After. Nil (the default) is
// unbounded.
func (s *Server) WithQueue(q *AcceptQueue) *Server {
	s.queue = q
	return s
}

// WithCache installs the layered response cache on /suggest; nil (the
// default) recomputes every request.
func (s *Server) WithCache(c *ResponseCache) *Server {
	s.cache = c
	return s
}

// EnableDebug mounts the debug surface — /debug/vars (expvar, including
// the metrics snapshot) and /debug/pprof/ — on handlers returned by
// subsequent Handler calls. Off by default: profiling endpoints leak
// implementation detail and should be opt-in per deployment.
func (s *Server) EnableDebug() { s.debug = true }

// WithTracer attaches a request tracer: every request runs under a
// trace span (joining an inbound W3C traceparent when present), and the
// completed-trace ring is served at GET /debug/traces. Nil disables.
func (s *Server) WithTracer(t *trace.Tracer) *Server {
	s.tracer = t
	return s
}

// WithLogger attaches a structured access logger (one info line per
// request) plus a slow-request warning for requests at or above
// slowAfter (<=0 disables the slow log). Panic reports also go here.
// Log records carry the request's trace and span IDs when the logger's
// handler is context-aware (internal/logx) and a tracer is attached.
func (s *Server) WithLogger(lg *slog.Logger, slowAfter time.Duration) *Server {
	s.log = lg
	s.slowAfter = slowAfter
	return s
}

// knownPaths bounds the path-label cardinality of the HTTP metrics.
var knownPaths = []string{
	"/healthz", "/readyz", "/version", "/metrics",
	"/patterns", "/errors", "/periodic", "/suggest",
	"/history", "/debug/",
}

// Handler returns the HTTP mux with every plugin endpoint mounted, plus
// the ops surface (/metrics, /version, /readyz, and — with EnableDebug —
// /debug/vars and /debug/pprof/). The middleware stack, outermost first:
// the tracing middleware (starts or joins the request's trace), the
// metrics middleware (whose latency exemplars read that trace), the
// access log, and the recover-to-500 guard directly around the mux — so
// a panic is counted, logged with its trace ID, and still surfaces as an
// ordinary 500 to every outer layer.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /version", s.handleVersion)
	mux.Handle("GET /metrics", s.obs.MetricsHandler())
	mux.HandleFunc("GET /patterns", s.handlePatterns)
	mux.HandleFunc("GET /errors", s.handleErrors)
	mux.HandleFunc("GET /periodic", s.handlePeriodic)
	mux.HandleFunc("POST /suggest", s.handleSuggest)
	// /history serves this instance's revision store in the JSONL dump
	// format, making the server a backend other miners can point
	// "-source http -source-url .../history" at (see source.HTTP). The
	// store is shared across model swaps (Swap documents this), so it is
	// resolved at mount time; the span follows the current state.
	mux.Handle("GET /history", source.HistoryHandler(s.state.Load().sys.Store(),
		func() action.Window { return s.state.Load().sys.Outcome().Span }))
	if s.tracer != nil {
		mux.Handle("GET /debug/traces", s.tracer.Handler())
	}
	if s.debug {
		s.obs.PublishExpvar("wiclean")
		mux.Handle("GET /debug/vars", expvar.Handler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	h := s.recoverMiddleware(mux)
	h = s.accessLogMiddleware(h)
	h = s.obs.HTTPMiddlewareTraced(h, requestTraceID, knownPaths...)
	return s.tracer.HTTPMiddleware(h)
}

// requestTraceID reads the trace ID the tracing middleware put on the
// request context — the exemplar extractor for the metrics middleware.
func requestTraceID(r *http.Request) string {
	return trace.FromContext(r.Context()).TraceIDString()
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// httpRetryable is httpError plus a Retry-After hint — the one helper
// behind every "come back later" answer (the warming gate's 503 and the
// serving layer's shed 429), so well-behaved clients always know how
// long to back off instead of hammering.
func httpRetryable(w http.ResponseWriter, code, retryAfterSec int, format string, args ...any) {
	if retryAfterSec < 1 {
		retryAfterSec = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSec))
	httpError(w, code, format, args...)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]any{
		"ok":             true,
		"patterns":       len(s.state.Load().sys.Outcome().Discovered),
		"uptime_seconds": time.Since(s.start).Seconds(),
	})
}

// handleReady answers readiness. A constructed Server is ready by
// definition — NewServer requires a mined (or warm-started) system and
// eagerly builds the error reports and the suggestion index — so this
// handler always says 200; the 503 phase of the readiness story lives in
// Gate, which fronts the listener until this server exists.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	st := s.state.Load()
	writeJSON(w, map[string]any{
		"ready":    true,
		"patterns": len(st.sys.Outcome().Discovered),
		"reports":  len(st.reports),
	})
}

// VersionInfo is the build identity served at /version.
type VersionInfo struct {
	Module        string  `json:"module"`
	Version       string  `json:"version"`
	GoVersion     string  `json:"go_version"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

func (s *Server) handleVersion(w http.ResponseWriter, _ *http.Request) {
	v := VersionInfo{
		Module:        "wiclean",
		Version:       "(devel)",
		GoVersion:     runtime.Version(),
		UptimeSeconds: time.Since(s.start).Seconds(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Path != "" {
			v.Module = bi.Main.Path
		}
		if bi.Main.Version != "" {
			v.Version = bi.Main.Version
		}
	}
	writeJSON(w, v)
}

func (s *Server) handlePatterns(w http.ResponseWriter, _ *http.Request) {
	o := s.state.Load().sys.Outcome()
	out := make([]PatternInfo, 0, len(o.Discovered))
	for i, d := range o.Discovered {
		out = append(out, PatternInfo{
			Pattern:     d.Pattern.String(),
			Dot:         d.Pattern.Dot(fmt.Sprintf("p%d", i)),
			Frequency:   d.Frequency,
			SourceCount: d.SourceCount,
			WindowStart: int64(d.Window.Start),
			WindowEnd:   int64(d.Window.End),
			WidthDays:   int64(d.Width / action.Day),
			Tau:         d.Tau,
		})
	}
	writeJSON(w, out)
}

func (s *Server) handleErrors(w http.ResponseWriter, _ *http.Request) {
	st := s.state.Load()
	out := make([]ErrorInfo, 0, 64)
	for _, rep := range st.reports {
		if rep == nil {
			continue
		}
		for _, pe := range rep.Partials {
			e := ErrorInfo{
				Pattern:     rep.Pattern.String(),
				WindowStart: int64(rep.Window.Start),
				WindowEnd:   int64(rep.Window.End),
				Subject:     st.reg.Name(pe.Subject()),
				FullCount:   rep.FullCount,
			}
			for _, sg := range pe.Suggestions {
				e.Suggestions = append(e.Suggestions, sg.Format(st.reg))
			}
			out = append(out, e)
		}
	}
	writeJSON(w, out)
}

func (s *Server) handlePeriodic(w http.ResponseWriter, _ *http.Request) {
	ps, err := s.state.Load().sys.PeriodicPatterns(0.35)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "periodic: %v", err)
		return
	}
	out := make([]PeriodicInfo, 0, len(ps))
	for _, p := range ps {
		out = append(out, PeriodicInfo{
			Pattern:     p.Pattern.String(),
			PeriodDays:  int64(p.Period / action.Day),
			Occurrences: len(p.Occurrences),
			NextStart:   int64(p.Next.Start),
		})
	}
	writeJSON(w, out)
}

// maxSuggestBody bounds the /suggest request body. The request is five
// short fields; a megabyte is already generous, and the bound is what
// keeps an oversized (or hostile) body from consuming unbounded memory.
const maxSuggestBody = 1 << 20

// clientKey identifies the requesting client for per-client rate
// limiting: the remote host without the ephemeral port, so sequential
// connections from one editor share a bucket.
func clientKey(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// shed answers an over-limit request: 429 with a Retry-After hint and
// the wiclean_http_shed_total counter (reason ∈ {"rate", "queue"}).
func (s *Server) shed(w http.ResponseWriter, reason string, retryAfter time.Duration) {
	s.obs.Counter(obs.Labeled(obs.HTTPShed, "reason", reason)).Inc()
	sec := int(math.Ceil(retryAfter.Seconds()))
	httpRetryable(w, http.StatusTooManyRequests, sec,
		"over capacity (%s); retry after the hinted delay", reason)
}

// decodeSuggest reads one JSON SuggestRequest off a size-bounded body.
// Oversized bodies answer 413, malformed JSON and trailing garbage after
// the value answer 400; ok reports whether a response was already
// written.
func decodeSuggest(w http.ResponseWriter, r *http.Request) (req SuggestRequest, ok bool) {
	r.Body = http.MaxBytesReader(w, r.Body, maxSuggestBody)
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(&req); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			httpError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", maxSuggestBody)
			return req, false
		}
		httpError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return req, false
	}
	// Reject trailing garbage after the JSON value: "{}{...}" or "{} x"
	// used to be silently accepted, masking malformed clients.
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		httpError(w, http.StatusBadRequest, "trailing data after JSON request body")
		return req, false
	}
	return req, true
}

// handleSuggest is the hardened high-QPS serving path, stage by stage:
// per-client limiter → bounded accept queue → size-bounded decode and
// validation → layered response cache → singleflight coalescing →
// assistant compute. Cached and computed responses are byte-identical
// (both are the serialized advice list), and every cache key embeds the
// serving model's fingerprint, so a hot swap atomically invalidates.
func (s *Server) handleSuggest(w http.ResponseWriter, r *http.Request) {
	if s.limiter != nil {
		if ok, wait := s.limiter.Allow(clientKey(r)); !ok {
			s.shed(w, "rate", wait)
			return
		}
	}
	if !s.queue.Acquire() {
		s.shed(w, "queue", time.Second)
		return
	}
	defer s.queue.Release()

	st := s.state.Load()
	req, ok := decodeSuggest(w, r)
	if !ok {
		return
	}
	// Validate the operation up front: only "+" (or the empty default) and
	// "-" are meaningful. Anything else used to be silently treated as an
	// addition, turning client typos into wrong advice.
	var op action.Op
	switch req.Op {
	case "+", "":
		op = action.Add
	case "-":
		op = action.Remove
	default:
		httpError(w, http.StatusBadRequest, "invalid op %q: want \"+\", \"-\" or empty", req.Op)
		return
	}
	src, ok := st.reg.Lookup(req.Subject)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown subject %q", req.Subject)
		return
	}
	dst, ok := st.reg.Lookup(req.Object)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown object %q", req.Object)
		return
	}

	ctx, sp := trace.StartSpan(r.Context(), "plugin.suggest")
	defer sp.End()
	key := suggestKey(st.fingerprint, req.Subject, req.Op, req.Label, req.Object, req.At)
	if body, hit := s.cache.Get(key); hit {
		sp.SetAttr("result", "hit")
		writeRawJSON(w, body)
		return
	}
	edit := action.Action{
		Op:   op,
		Edge: action.Edge{Src: src, Label: action.Label(req.Label), Dst: dst},
		T:    action.Time(req.At),
	}
	body, shared, err := s.flights.Do(ctx, key, func() ([]byte, error) {
		b, err := computeSuggest(st, edit)
		if err == nil {
			s.cache.Put(key, b)
		}
		return b, err
	})
	switch {
	case err != nil:
		sp.Fail(err)
		httpError(w, http.StatusInternalServerError, "suggest: %v", err)
	case shared:
		sp.SetAttr("result", "coalesced")
		writeRawJSON(w, body)
	default:
		sp.SetAttr("result", "computed")
		writeRawJSON(w, body)
	}
}

// computeSuggest runs the assistant for one validated edit and
// serializes the advice list — exactly the bytes writeJSON would emit,
// which is what makes cached, coalesced and computed responses
// byte-identical.
func computeSuggest(st *serveState, edit action.Action) ([]byte, error) {
	advices := st.assistant.Suggest(edit, edit.T)
	out := make([]AdviceInfo, 0, len(advices))
	for _, a := range advices {
		ai := AdviceInfo{Pattern: a.Pattern.String(), Frequency: a.Frequency}
		for _, sg := range a.Done {
			ai.Done = append(ai.Done, sg.Format(st.reg))
		}
		for _, sg := range a.Missing {
			ai.Missing = append(ai.Missing, sg.Format(st.reg))
		}
		out = append(out, ai)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(out); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// writeRawJSON writes an already-serialized JSON body.
func writeRawJSON(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}
