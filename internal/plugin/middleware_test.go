package plugin

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wiclean/internal/action"
	"wiclean/internal/core"
	"wiclean/internal/logx"
	"wiclean/internal/mining"
	"wiclean/internal/obs"
	"wiclean/internal/obs/trace"
	"wiclean/internal/taxonomy"
)

// faultyStore is the shared world's history behind two switches: while
// failed is set it reports a failed fetch, so the store-backed endpoints
// answer 503; while panics is set its reads panic, a backend bug the
// request wrapper must contain.
type faultyStore struct {
	mining.Store
	failed, panics *atomic.Bool
}

func (s faultyStore) ActionsOf(ids []taxonomy.EntityID, w action.Window) []action.Action {
	if s.panics.Load() {
		panic("store bug")
	}
	return s.Store.ActionsOf(ids, w)
}

func (s faultyStore) FetchErr() error {
	if s.failed.Load() {
		return errors.New("history backend down")
	}
	return nil
}

// wrapped is a server over the shared mined world with a tracer, a
// registry and a logger attached, as wiclean-server wires them. Its
// requests run on the test's goroutine, so a request's trace has
// exported and its log lines are written when serve returns.
type wrapped struct {
	handler        http.Handler
	reg            *obs.Registry
	tracer         *trace.Tracer
	log            bytes.Buffer
	failed, panics atomic.Bool
}

func newWrapped(t *testing.T) *wrapped {
	t.Helper()
	sharedServer(t) // populates the cached mined world
	w := &wrapped{reg: obs.NewRegistry()}
	w.tracer = trace.New(trace.Config{Service: "test", Registry: w.reg})
	sys := core.New(faultyStore{cachedWorld.History, &w.failed, &w.panics}, cachedCfg).WithObs(w.reg)
	if err := sys.UseOutcome(cachedSys.Outcome()); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(sys, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv.WithTracer(w.tracer).WithLogger(logx.New(&w.log, slog.LevelInfo))
	w.handler = srv.Handler()
	return w
}

// serve runs one request through Server.Handler and returns its export.
func (w *wrapped) serve(t *testing.T, rw http.ResponseWriter, r *http.Request) trace.TraceExport {
	t.Helper()
	w.handler.ServeHTTP(rw, r)
	recent := w.tracer.Recent()
	if len(recent) == 0 {
		t.Fatalf("%s %s exported no trace", r.Method, r.URL)
	}
	return recent[len(recent)-1]
}

// logLine is one access-log or panic record.
type logLine struct {
	Msg      string `json:"msg"`
	Method   string `json:"method"`
	Path     string `json:"path"`
	Endpoint string `json:"endpoint"`
	Status   int    `json:"status"`
	Bytes    int64  `json:"bytes"`
	Elapsed  int64  `json:"elapsed"` // nanoseconds, as slog's JSON handler writes a time.Duration
	Panic    string `json:"panic"`
	TraceID  string `json:"trace_id"`
	SpanID   string `json:"span_id"`
}

// logged decodes the log lines written since the last call.
func (w *wrapped) logged(t *testing.T) []logLine {
	t.Helper()
	var out []logLine
	sc := bufio.NewScanner(&w.log)
	for sc.Scan() {
		var l logLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("log line %q: %v", sc.Bytes(), err)
		}
		out = append(out, l)
	}
	w.log.Reset()
	return out
}

// accessLine returns the one "http request" line among lines.
func accessLine(t *testing.T, lines []logLine) logLine {
	t.Helper()
	var found []logLine
	for _, l := range lines {
		if l.Msg == "http request" {
			found = append(found, l)
		}
	}
	if len(found) != 1 {
		t.Fatalf("%d access-log lines, want 1: %+v", len(found), lines)
	}
	return found[0]
}

// requestSpan returns the http.request root span of exp.
func requestSpan(t *testing.T, exp trace.TraceExport) trace.SpanExport {
	t.Helper()
	if exp.Root != "http.request" {
		t.Fatalf("export root = %q, want http.request", exp.Root)
	}
	for _, sp := range exp.Spans {
		if sp.Name == "http.request" {
			return sp
		}
	}
	t.Fatalf("export holds no http.request span: %+v", exp.Spans)
	return trace.SpanExport{}
}

func requestCount(reg *obs.Registry, path, class string) int64 {
	return reg.Counter(obs.Labeled(obs.HTTPRequests, "path", path, "code", class)).Value()
}

func latency(reg *obs.Registry, path string) *obs.Histogram {
	return reg.Histogram(obs.Labeled(obs.HTTPRequestSeconds, "path", path), nil)
}

// TestOneStatusAndDurationPerRequest pins what one request wrapper buys:
// for one request, the access log's elapsed, the path's histogram sum
// and the exported http.request span's elapsed_ns are one duration, and
// the counter, the span and the log line read the status the client
// received, 500 for a request whose handler panicked.
func TestOneStatusAndDurationPerRequest(t *testing.T) {
	w := newWrapped(t)
	for _, tc := range []struct {
		name, target string
		panics       bool
		status       int
	}{
		{"served", "/patterns", false, http.StatusOK},
		{"panicked", "/history?type=" + string(cachedWorld.Domain.SeedType), true, http.StatusInternalServerError},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w.panics.Store(tc.panics)
			defer w.panics.Store(false)
			req := httptest.NewRequest("GET", tc.target, nil)
			rec := httptest.NewRecorder()
			exp := w.serve(t, rec, req)
			if rec.Code != tc.status {
				t.Fatalf("GET %s = %d, want %d", tc.target, rec.Code, tc.status)
			}
			span := requestSpan(t, exp)
			access := accessLine(t, w.logged(t))
			path := req.URL.Path

			class := strconv.Itoa(tc.status/100) + "xx"
			if got := requestCount(w.reg, path, class); got != 1 {
				t.Errorf("%s{path=%q,code=%q} = %d, want 1", obs.HTTPRequests, path, class, got)
			}
			if got := span.Attrs["status"]; got != strconv.Itoa(tc.status) {
				t.Errorf("span status = %q, want %d", got, tc.status)
			}
			if access.Status != tc.status {
				t.Errorf("access log status = %d, want %d", access.Status, tc.status)
			}

			h := latency(w.reg, path)
			if h.Count() != 1 {
				t.Fatalf("%s{path=%q} holds %d observations, want 1", obs.HTTPRequestSeconds, path, h.Count())
			}
			d := time.Duration(span.Elapsed)
			if d <= 0 || exp.Elapsed != span.Elapsed {
				t.Fatalf("span elapsed %v, trace elapsed %v", d, time.Duration(exp.Elapsed))
			}
			if access.Elapsed != span.Elapsed {
				t.Errorf("access log elapsed %v, span elapsed %v: want one duration", time.Duration(access.Elapsed), d)
			}
			if h.Sum() != d.Seconds() {
				t.Errorf("histogram sum %vs, span elapsed %vs: want one duration", h.Sum(), d.Seconds())
			}
		})
	}
}

// TestRequestMetricsPerPath drives Server.Handler with a tracer, a
// registry and a logger attached and pins the request counter per path
// and status class (unknown paths count as "other", and /debug/... under
// its prefix), the latency histogram and its trace-ID exemplar, and the
// http.request span: its attributes, the parent an inbound traceparent
// names, and its failure on a 5xx (/history over a failed store).
func TestRequestMetricsPerPath(t *testing.T) {
	w := newWrapped(t)
	get := func(target string, h http.Header) (*httptest.ResponseRecorder, trace.TraceExport) {
		t.Helper()
		req := httptest.NewRequest("GET", target, nil)
		for k, v := range h {
			req.Header[k] = v
		}
		rec := httptest.NewRecorder()
		return rec, w.serve(t, rec, req)
	}

	remote := trace.SpanContext{TraceID: trace.TraceID{1, 2, 3}, SpanID: trace.SpanID{4, 5, 6}}
	inbound := http.Header{}
	inbound.Set(trace.Header, trace.FormatTraceparent(remote))
	_, joined := get("/patterns", inbound)
	_, fresh := get("/patterns", nil)
	get("/unknown", nil)
	// The debug surface is off: 404. An ops path, so no trace exports.
	w.handler.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/debug/pprof/x", nil))
	w.failed.Store(true)
	rec, failed := get("/history?type="+string(cachedWorld.Domain.SeedType), nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/history over a failed store = %d, want 503", rec.Code)
	}

	for _, c := range []struct {
		path, class string
		want        int64
	}{
		{"/patterns", "2xx", 2},
		{"/history", "5xx", 1},
		{"other", "4xx", 1},
		{"/debug/", "4xx", 1},
	} {
		if got := requestCount(w.reg, c.path, c.class); got != c.want {
			t.Errorf("%s{path=%q,code=%q} = %d, want %d", obs.HTTPRequests, c.path, c.class, got, c.want)
		}
	}
	if got := latency(w.reg, "/patterns").Count(); got != 2 {
		t.Errorf("/patterns latency histogram holds %d observations, want 2", got)
	}

	// The exemplars name the /patterns traces, at their span's duration.
	elapsed := map[string]float64{}
	for _, exp := range []trace.TraceExport{joined, fresh} {
		elapsed[exp.TraceID] = time.Duration(requestSpan(t, exp).Elapsed).Seconds()
	}
	name := obs.Labeled(obs.HTTPRequestSeconds, "path", "/patterns")
	exemplars := 0
	for _, ex := range w.reg.Snapshot().Histograms[name].Exemplars {
		if ex.TraceID == "" {
			continue
		}
		exemplars++
		if v, ok := elapsed[ex.TraceID]; !ok || v != ex.Value {
			t.Errorf("exemplar %+v names no /patterns trace at its duration (%v)", ex, elapsed)
		}
	}
	if exemplars == 0 {
		t.Error("the /patterns histogram carries no exemplar")
	}

	// The inbound traceparent is the span's remote parent.
	if joined.TraceID != remote.TraceID.String() || joined.Parent != remote.SpanID.String() {
		t.Errorf("joined trace %s under %q, want %s under %s", joined.TraceID, joined.Parent, remote.TraceID, remote.SpanID)
	}
	if fresh.TraceID == joined.TraceID || fresh.Parent != "" {
		t.Errorf("a request without traceparent joined trace %s under %q", fresh.TraceID, fresh.Parent)
	}
	span := requestSpan(t, joined)
	if span.Attrs["method"] != "GET" || span.Attrs["path"] != "/patterns" || span.Attrs["status"] != "200" {
		t.Errorf("span attrs = %v", span.Attrs)
	}
	if span.Error != "" || joined.Reason != trace.ReasonSampled {
		t.Errorf("a 200 span: error %q, reason %q", span.Error, joined.Reason)
	}

	// A 5xx fails the span and its trace.
	span = requestSpan(t, failed)
	if span.Attrs["status"] != "503" || span.Error != "http status 503" || failed.Reason != trace.ReasonError {
		t.Errorf("a 503 span: attrs %v, error %q, reason %q", span.Attrs, span.Error, failed.Reason)
	}
}

// TestOpsPathsStayOutOfTheTraceRing sends one /suggest and then more
// /metrics scrapes than the 64-trace ring holds, and a request to each
// other ops path, through a server with a tracer, a registry and a logger
// attached. /debug/traces still serves the /suggest trace, and only it:
// the ops paths are counted, timed and logged, but not traced.
func TestOpsPathsStayOutOfTheTraceRing(t *testing.T) {
	w := newWrapped(t)
	rec := httptest.NewRecorder()
	suggest := w.serve(t, rec, httptest.NewRequest("POST", "/suggest", strings.NewReader(suggestBody)))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /suggest = %d", rec.Code)
	}
	const scrapes = 70
	for i := 0; i < scrapes; i++ {
		w.handler.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/metrics", nil))
	}
	for _, p := range []string{"/healthz", "/readyz", "/version", "/debug/traces"} {
		w.handler.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", p, nil))
	}

	rec = httptest.NewRecorder()
	w.handler.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	var ring struct {
		Traces []trace.TraceExport `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ring); err != nil {
		t.Fatalf("/debug/traces body %q: %v", rec.Body.Bytes(), err)
	}
	if len(ring.Traces) != 1 || ring.Traces[0].TraceID != suggest.TraceID {
		t.Fatalf("/debug/traces holds %d traces, want only the /suggest trace %s", len(ring.Traces), suggest.TraceID)
	}

	if got := requestCount(w.reg, "/metrics", "2xx"); got != scrapes {
		t.Errorf("/metrics 2xx = %d, want %d", got, scrapes)
	}
	for _, p := range []string{"/healthz", "/readyz", "/version"} {
		if got := requestCount(w.reg, p, "2xx"); got != 1 {
			t.Errorf("%s 2xx = %d, want 1", p, got)
		}
	}
	if got := requestCount(w.reg, "/debug/", "2xx"); got != 2 {
		t.Errorf("/debug/ 2xx = %d, want 2", got)
	}
	if got := latency(w.reg, "/metrics").Count(); got != scrapes {
		t.Errorf("/metrics latency histogram holds %d observations, want %d", got, scrapes)
	}
	logged := 0
	for _, l := range w.logged(t) {
		if l.Msg == "http request" && l.Endpoint == "/metrics" {
			logged++
			if l.TraceID != "" {
				t.Errorf("a /metrics access-log line names trace %s", l.TraceID)
			}
		}
	}
	if logged != scrapes {
		t.Errorf("%d /metrics access-log lines, want %d", logged, scrapes)
	}
}

// bodyPanicWriter takes a status and panics on the body's first write:
// the client has its status when the panic comes.
type bodyPanicWriter struct{ *httptest.ResponseRecorder }

func (bodyPanicWriter) Write([]byte) (int, error) { panic("connection lost mid-body") }

// TestRecoverMiddleware pins the request wrapper's panic barrier, through
// Server.Handler: a panicking handler yields a JSON 500 (not a dead
// connection), increments wiclean_http_panics_total, logs the panic with
// its stack and trace ID, and fails the request's trace. A request whose
// status was already written keeps it, and every instrument reads it.
func TestRecoverMiddleware(t *testing.T) {
	w := newWrapped(t)
	w.panics.Store(true)
	rec := httptest.NewRecorder()
	exp := w.serve(t, rec, httptest.NewRequest("GET", "/history?type="+string(cachedWorld.Domain.SeedType), nil))
	w.panics.Store(false)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler answered %d, want 500", rec.Code)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error != "internal error" {
		t.Fatalf("500 body = %q (%v)", rec.Body.String(), err)
	}
	if got := w.reg.Counter(obs.HTTPPanics).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", obs.HTTPPanics, got)
	}
	var panicLine *logLine
	lines := w.logged(t)
	for i := range lines {
		if lines[i].Msg == "panic in handler" {
			panicLine = &lines[i]
		}
	}
	if panicLine == nil || panicLine.Panic != "store bug" || panicLine.TraceID != exp.TraceID {
		t.Fatalf("panic log = %+v, want the panic under trace %s", lines, exp.TraceID)
	}
	if exp.Reason != trace.ReasonError {
		t.Fatalf("panicking request's trace reason = %q, want %q", exp.Reason, trace.ReasonError)
	}

	// A handler that already wrote a status keeps it: no second write.
	bw := bodyPanicWriter{httptest.NewRecorder()}
	unknown := `{"subject":"Nobody","op":"+","label":"member_of","object":"Committee 0003","at":1}`
	exp = w.serve(t, bw, httptest.NewRequest("POST", "/suggest", strings.NewReader(unknown)))
	if bw.Code != http.StatusNotFound || bw.Body.Len() != 0 {
		t.Fatalf("late panic answered %d %q, want the written 404 and no body", bw.Code, bw.Body.String())
	}
	if got := w.reg.Counter(obs.HTTPPanics).Value(); got != 2 {
		t.Fatalf("%s = %d, want 2", obs.HTTPPanics, got)
	}
	if got := requestCount(w.reg, "/suggest", "4xx"); got != 1 {
		t.Errorf("/suggest 4xx = %d, want 1", got)
	}
	span := requestSpan(t, exp)
	if span.Attrs["status"] != "404" || exp.Reason != trace.ReasonError {
		t.Errorf("late panic span: attrs %v, reason %q", span.Attrs, exp.Reason)
	}
	if access := accessLine(t, w.logged(t)); access.Status != http.StatusNotFound {
		t.Errorf("late panic access log status = %d, want 404", access.Status)
	}
}

// TestAccessLogCarriesTraceIDs checks the structured access log through
// Server.Handler: one info line per request with endpoint normalization
// and the bytes sent, stamped with the request's trace and span IDs by
// the context-aware logx handler.
func TestAccessLogCarriesTraceIDs(t *testing.T) {
	w := newWrapped(t)
	rec := httptest.NewRecorder()
	exp := w.serve(t, rec, httptest.NewRequest("GET", "/patterns", nil))
	line := accessLine(t, w.logged(t))
	if line.Method != "GET" || line.Path != "/patterns" || line.Endpoint != "/patterns" || line.Status != 200 {
		t.Fatalf("access log = %+v", line)
	}
	if line.Bytes != int64(rec.Body.Len()) {
		t.Fatalf("access log bytes = %d, response held %d", line.Bytes, rec.Body.Len())
	}
	if line.TraceID != exp.TraceID || line.SpanID != requestSpan(t, exp).SpanID {
		t.Fatalf("access log trace identity %s/%s, exported %s/%s",
			line.TraceID, line.SpanID, exp.TraceID, requestSpan(t, exp).SpanID)
	}
}

// TestBareWrapperAllocatesOnlyItsStatusWriter pins the wrapper's cost
// with no tracer, registry or logger attached, as the bench's serve-cold
// server runs it: a request to a handler that writes nothing allocates
// one object, the status writer.
func TestBareWrapperAllocatesOnlyItsStatusWriter(t *testing.T) {
	h := (&Server{}).instrument(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/healthz", nil)
	if allocs := testing.AllocsPerRun(100, func() { h.ServeHTTP(rec, req) }); allocs > 1 {
		t.Fatalf("bare wrapper: %v allocations per request, want at most 1", allocs)
	}
}
