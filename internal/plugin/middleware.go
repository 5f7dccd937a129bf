package plugin

import (
	"context"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"wiclean/internal/obs"
	"wiclean/internal/obs/trace"
)

// slowRequest is the duration at and past which a request's access-log
// line is repeated as a warning.
const slowRequest = time.Second

// knownPaths bounds the path-label cardinality of the HTTP metrics.
var knownPaths = []string{
	"/healthz", "/readyz", "/version", "/metrics",
	"/patterns", "/errors", "/periodic", "/suggest",
	"/history", "/debug/",
}

// normalizePath maps a request path onto knownPaths, the bounded set the
// HTTP metrics and the access log's endpoint attribute are labeled with:
// an exact match, a prefix match for entries ending in "/", or "other".
func normalizePath(p string) string {
	for _, k := range knownPaths {
		if p == k || (strings.HasSuffix(k, "/") && strings.HasPrefix(p, k)) {
			return k
		}
	}
	return "other"
}

// untraced reports whether a request path is an ops path: a scrape, a
// probe or a debug read. Those are counted, timed and logged but not
// traced, so that a scraper polling every few seconds does not push the
// request traces out of the ring /debug/traces serves.
func untraced(p string) bool {
	switch normalizePath(p) {
	case "/healthz", "/readyz", "/version", "/metrics", "/debug/":
		return true
	}
	return false
}

// statusClass labels a status code with its class ("2xx", ...).
func statusClass(code int) string {
	if code < 100 || code > 599 {
		return "other"
	}
	return strconv.Itoa(code/100) + "xx"
}

// statusWriter records what the client received: the status of the
// first WriteHeader, or 200 on the first Write, and the body bytes.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

// WriteHeader records the status and forwards.
func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

// Write defaults the status to 200 and forwards.
func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards to the wrapped writer when it supports streaming.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps next in the server's one request wrapper. Each request
// but those to the ops paths (untraced) runs under an "http.request" span
// that joins an inbound traceparent, and a handler panic becomes a JSON
// 500 instead of a dead connection. The status the client received and
// one duration then go to every instrument attached: the request counter,
// the latency histogram with its trace-ID exemplar, the span, the access
// log and the slow-request warning. The duration is the span's own;
// without a span it is one clock pair, and with no tracer, registry or
// logger attached no clock is read.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		var sp *trace.Span
		var start time.Time
		switch {
		case s.tracer != nil && !untraced(r.URL.Path):
			var parent trace.SpanContext
			if v := r.Header.Get(trace.Header); v != "" {
				parent, _ = trace.ParseTraceparent(v) // malformed → fresh trace
			}
			var ctx context.Context
			ctx, sp = s.tracer.StartRemote(r.Context(), "http.request", parent)
			sp.SetAttr("method", r.Method)
			sp.SetAttr("path", r.URL.Path)
			r = r.WithContext(ctx)
		case s.obs != nil || s.log != nil:
			start = time.Now()
		}
		defer func() {
			if rec := recover(); rec != nil {
				s.recovered(sw, r, sp, rec)
			}
			s.record(sw, r, sp, start)
		}()
		next.ServeHTTP(sw, r)
	})
}

// recovered handles a handler panic: it is counted
// (wiclean_http_panics_total), logged with its stack and the request's
// trace ID, and fails the request's span; unless the handler already
// wrote a status, the client gets a JSON 500. The server stays up; one
// poisoned request cannot take the process down.
func (s *Server) recovered(sw *statusWriter, r *http.Request, sp *trace.Span, rec any) {
	s.obs.Counter(obs.HTTPPanics).Inc()
	if s.log != nil {
		s.log.LogAttrs(r.Context(), slog.LevelError, "panic in handler",
			slog.Any("panic", rec),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("stack", string(debug.Stack())),
		)
	}
	sp.Fail(panicError{})
	if sw.status == 0 {
		httpError(sw, http.StatusInternalServerError, "internal error")
	}
}

// record ends the request's span and records the status the client
// received, with one duration, into the counter, the histogram, the
// access log and the slow-request warning.
func (s *Server) record(sw *statusWriter, r *http.Request, sp *trace.Span, start time.Time) {
	status := sw.status
	if status == 0 {
		status = http.StatusOK
	}
	var elapsed time.Duration
	switch {
	case sp != nil:
		sp.SetAttrInt("status", int64(status))
		if status >= 500 {
			sp.Fail(statusError(status))
		}
		elapsed = sp.End()
	case s.obs == nil && s.log == nil:
		return
	default:
		elapsed = time.Since(start)
	}
	path := normalizePath(r.URL.Path)
	if s.obs != nil {
		s.obs.Counter(obs.Labeled(obs.HTTPRequests, "path", path, "code", statusClass(status))).Inc()
		s.obs.Histogram(obs.Labeled(obs.HTTPRequestSeconds, "path", path), obs.DurationBuckets).
			ObserveDurationWithExemplar(elapsed, sp.TraceIDString())
	}
	if s.log == nil {
		return
	}
	attrs := []slog.Attr{
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.String("endpoint", path),
		slog.Int("status", status),
		slog.Int64("bytes", sw.bytes),
		slog.Duration("elapsed", elapsed),
	}
	s.log.LogAttrs(r.Context(), slog.LevelInfo, "http request", attrs...)
	if elapsed >= slowRequest {
		s.log.LogAttrs(r.Context(), slog.LevelWarn, "slow http request", attrs...)
	}
}

// panicError is the error recorded on the span of a request whose handler
// panicked; the panic value itself goes to the log, not the export.
type panicError struct{}

// Error names the failure.
func (panicError) Error() string { return "handler panic" }

// statusError is the error recorded on the span of a request answered
// with a 5xx status.
type statusError int

// Error names the status.
func (e statusError) Error() string { return "http status " + strconv.Itoa(int(e)) }
