package obs

import (
	"expvar"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// MetricsHandler serves the registry in the Prometheus text exposition
// format — mount it at GET /metrics. Nil-safe: a nil registry serves an
// empty exposition.
func (r *Registry) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.Snapshot().WritePrometheus(w)
	})
}

var publishOnce sync.Map // expvar name -> struct{}, guards duplicate Publish panics

// PublishExpvar exposes the registry's snapshot under the given expvar
// name, bridging it onto GET /debug/vars. Publishing the same name twice
// (e.g. from tests) is a no-op instead of the expvar duplicate panic.
// Nil-safe: a nil registry publishes empty snapshots.
func (r *Registry) PublishExpvar(name string) {
	if _, loaded := publishOnce.LoadOrStore(name, struct{}{}); loaded {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}

// statusRecorder captures the response status for the middleware.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	return sr.ResponseWriter.Write(b)
}

// Flush forwards to the wrapped writer when it supports streaming.
func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// HTTPMiddleware wraps next, recording per-endpoint request counts (with
// a status-class label) and latency histograms. To bound label
// cardinality the path label is the matching entry of known (exact match,
// or prefix match for entries ending in "/"); anything else records as
// "other". When exemplar returns a non-empty trace ID for a request —
// typically read off the request context installed by an outer tracing
// middleware — the latency observation carries it as the bucket's
// exemplar; a nil exemplar records none. The extractor is a function
// parameter (not a trace-package call) so obs stays import-free of the
// trace layer it feeds. A nil registry returns next unchanged.
func (r *Registry) HTTPMiddleware(next http.Handler, exemplar func(*http.Request) string, known ...string) http.Handler {
	if r == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		sr := &statusRecorder{ResponseWriter: w}
		next.ServeHTTP(sr, req)
		if sr.status == 0 {
			sr.status = http.StatusOK
		}
		traceID := ""
		if exemplar != nil {
			traceID = exemplar(req)
		}
		path := NormalizePath(req.URL.Path, known)
		r.Counter(Labeled(HTTPRequests, "path", path, "code", statusClass(sr.status))).Inc()
		r.Histogram(Labeled(HTTPRequestSeconds, "path", path), DurationBuckets).
			ObserveDurationWithExemplar(time.Since(start), traceID)
	})
}

// NormalizePath maps a request path onto the bounded known set the HTTP
// metrics are labeled with: an exact match, a prefix match for entries
// ending in "/", or "other". Shared with the server's access log so logs
// and metrics agree on endpoint naming.
func NormalizePath(p string, known []string) string {
	for _, k := range known {
		if p == k || (strings.HasSuffix(k, "/") && strings.HasPrefix(p, k)) {
			return k
		}
	}
	return "other"
}

func statusClass(code int) string {
	if code < 100 || code > 599 {
		return "other"
	}
	return strconv.Itoa(code/100) + "xx"
}
