package trace

import (
	"context"
	"io"
	"strconv"
	"sync"
	"time"

	"wiclean/internal/obs"
)

// Config configures a Tracer. The zero value is usable: every completed
// trace exports to the ring and nothing is written to a JSONL sink.
type Config struct {
	// Service names the process on exports (e.g. "wiclean-server"), so a
	// stitched cross-process trace shows which spans ran where.
	Service string

	// Registry receives the tracer's counters and the timing of every
	// ended span under the span's own name (the SpanSeconds summary); nil
	// is a no-op.
	Registry *obs.Registry

	// Output, when non-nil, receives one JSON line per completed trace
	// (the -trace-out sink). Writes are serialized by the tracer.
	Output io.Writer
}

// ringTraces bounds the in-memory ring of completed traces served at
// /debug/traces. Overflow drops the oldest trace.
const ringTraces = 64

// Tracer creates and collects request-scoped traces. A nil *Tracer is a
// valid no-op: StartRoot returns a nil span and the context unchanged.
type Tracer struct {
	cfg Config

	mu       sync.Mutex
	ring     []TraceExport // completed traces, ring-ordered
	ringSize int
	ringPos  int
}

// New returns a Tracer with the given configuration.
func New(cfg Config) *Tracer { return newTracer(cfg, ringTraces) }

// newTracer is New with a ring of the given size; tests shrink it.
func newTracer(cfg Config, ring int) *Tracer {
	return &Tracer{cfg: cfg, ring: make([]TraceExport, 0, ring), ringSize: ring}
}

// activeTrace is the per-trace collector: every span of one trace
// appends its finished record here, under this trace's own lock, so
// concurrent traces never interleave state.
type activeTrace struct {
	tracer *Tracer
	id     TraceID

	mu      sync.Mutex
	spans   []SpanExport
	errored bool
}

// Span is one timed operation inside a trace. Spans are created with
// StartRoot (new trace) or StartSpan (child of the context's span) and
// closed with End; attributes and errors attach between the two. All
// methods are safe on a nil *Span, which is what StartSpan hands out
// when the context carries no trace.
type Span struct {
	trace  *activeTrace
	id     SpanID
	parent SpanID
	name   string
	start  time.Time
	isRoot bool

	mu     sync.Mutex
	attrs  map[string]string
	errMsg string
	ended  bool
}

// ctxKey keys the current span in a context.Context.
type ctxKey struct{}

// FromContext returns the context's current span, or nil when the
// context carries none.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// ContextWith returns ctx carrying sp as the current span.
func ContextWith(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, sp)
}

// StartRoot opens a new trace with a fresh trace ID and returns the
// root span plus a context carrying it. Nil-safe: a nil tracer returns
// ctx unchanged and a nil span.
func (t *Tracer) StartRoot(ctx context.Context, name string) (context.Context, *Span) {
	return t.StartRemote(ctx, name, SpanContext{})
}

// StartRemote opens this process's root span of a trace that may have
// started elsewhere: with a non-zero parent (a parsed traceparent), the
// new span joins the remote trace under that parent span; with a zero
// parent it behaves like StartRoot. Nil-safe.
func (t *Tracer) StartRemote(ctx context.Context, name string, parent SpanContext) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	at := &activeTrace{tracer: t}
	sp := &Span{
		trace:  at,
		id:     newSpanID(),
		name:   name,
		start:  time.Now(),
		isRoot: true,
	}
	if parent.IsZero() {
		at.id = newTraceID()
	} else {
		at.id = parent.TraceID
		sp.parent = parent.SpanID
	}
	t.cfg.Registry.Counter(obs.TracesStarted).Inc()
	return ContextWith(ctx, sp), sp
}

// StartSpan opens a child of the context's current span and returns it
// with a context carrying the child. When the context has no span —
// tracing disabled, or a call path outside any request — it returns ctx
// unchanged and a nil, no-op span, so call sites never branch.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	sp := &Span{
		trace:  parent.trace,
		id:     newSpanID(),
		parent: parent.id,
		name:   name,
		start:  time.Now(),
	}
	return ContextWith(ctx, sp), sp
}

// TraceID returns the span's trace ID; zero for a nil span.
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.trace.id
}

// SpanID returns the span's own ID; zero for a nil span.
func (s *Span) SpanID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// TraceIDString returns the hex trace ID, or "" for a nil span — the
// form exemplar and structured-log call sites want, where an all-zero
// hex ID would read as a real (broken) trace.
func (s *Span) TraceIDString() string {
	if s == nil {
		return ""
	}
	return s.trace.id.String()
}

// Context returns the span's wire identity for propagation; zero for a
// nil span.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.trace.id, SpanID: s.id}
}

// SetAttr attaches a key/value attribute (window index, seed type,
// cache hit/miss, retry count, ...). Later writes win. Nil-safe.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = map[string]string{}
	}
	s.attrs[key] = value
	s.mu.Unlock()
}

// SetAttrInt is SetAttr for integer values.
func (s *Span) SetAttrInt(key string, v int64) {
	s.SetAttr(key, strconv.FormatInt(v, 10))
}

// Fail records err on the span and marks the whole trace errored, so it
// exports with reason "error". A nil error (or nil span) is a no-op, so
// "defer sp.Fail(err)"-style call sites need no branch.
func (s *Span) Fail(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.errMsg = err.Error()
	s.mu.Unlock()
	s.trace.mu.Lock()
	s.trace.errored = true
	s.trace.mu.Unlock()
}

// End closes the span: its record joins the trace's span list, its
// duration folds into the obs registry's aggregate under the span's own
// name, and for the root span the completed trace is exported. End
// returns the elapsed time, the span's elapsed_ns; double-End and nil-End
// return 0.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return 0
	}
	s.ended = true
	elapsed := time.Since(s.start)
	rec := SpanExport{
		Name:    s.name,
		SpanID:  s.id.String(),
		Start:   s.start.UnixNano(),
		Elapsed: elapsed.Nanoseconds(),
		Error:   s.errMsg,
	}
	if !s.parent.IsZero() {
		rec.Parent = s.parent.String()
	}
	if len(s.attrs) > 0 {
		rec.Attrs = make(map[string]string, len(s.attrs))
		for k, v := range s.attrs {
			rec.Attrs[k] = v
		}
	}
	s.mu.Unlock()

	at := s.trace
	at.tracer.registry().ObserveSpan(s.name, elapsed)

	at.mu.Lock()
	at.spans = append(at.spans, rec)
	at.mu.Unlock()
	if s.isRoot {
		at.tracer.finish(at, s, elapsed)
	}
	return elapsed
}

// registry returns the tracer's obs registry; nil-safe.
func (t *Tracer) registry() *obs.Registry {
	if t == nil {
		return nil
	}
	return t.cfg.Registry
}
