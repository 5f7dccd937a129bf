package main

import (
	"context"
	"net/http"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wiclean/internal/action"
	"wiclean/internal/source"
	"wiclean/internal/taxonomy"
)

// spanRecord is one timed call into a layer, recorded by the bench around
// the call. Times are nanoseconds since the tracer started. Stage spans,
// which run one at a time, also carry the bytes allocated while they ran.
type spanRecord struct {
	Name   string `json:"name"`
	Trace  uint64 `json:"trace"`
	Span   uint64 `json:"span"`
	Parent uint64 `json:"parent"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Alloc  uint64 `json:"alloc_bytes,omitempty"`
}

func (s spanRecord) dur() time.Duration { return time.Duration(s.End - s.Start) }

// ref names a recorded span as the parent of another.
type ref struct{ trace, span uint64 }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, but its spans still time themselves, so the untraced and traced
// runs share one code path.
type tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	stage atomic.Pointer[ref] // parent of spans the bench cannot link by call: source fetches

	mu    sync.Mutex
	spans []spanRecord
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// active is a span that has started and not yet ended.
type active struct {
	tr     *tracer
	rec    spanRecord
	start  time.Time
	alloc0 uint64 // heap bytes allocated so far, for stage spans
	stage  bool
}

// rootAt opens a span starting a new trace at the given time.
func (t *tracer) rootAt(name string, at time.Time) *active {
	a := t.child(ref{}, name)
	a.start = at
	return a
}

func (t *tracer) root(name string) *active { return t.child(ref{}, name) }

// child opens a span under parent; under the zero ref it starts a trace.
func (t *tracer) child(parent ref, name string) *active {
	if t == nil {
		return &active{start: time.Now()}
	}
	id := t.ids.Add(1)
	if parent.span == 0 {
		parent.trace = id
	}
	return &active{tr: t, start: time.Now(), rec: spanRecord{
		Name: name, Trace: parent.trace, Span: id, Parent: parent.span,
	}}
}

// stageOf opens a stage span under parent: a call into one layer that runs
// alone. Source fetches issued until the next stage starts become its
// children, and the span records the bytes allocated while it runs.
func (t *tracer) stageOf(parent ref, name string) *active {
	a := t.child(parent, name)
	if t != nil {
		r := a.ref()
		t.stage.Store(&r)
		a.stage = true
		a.alloc0 = heapAllocated()
	}
	return a
}

// current is the stage fetches are attributed to.
func (t *tracer) current() ref {
	if r := t.stage.Load(); r != nil {
		return *r
	}
	return ref{}
}

func (a *active) ref() ref { return ref{trace: a.rec.Trace, span: a.rec.Span} }

// end closes the span, records it when tracing, and returns its duration.
func (a *active) end() time.Duration {
	now := time.Now()
	d := now.Sub(a.start)
	if a.tr == nil {
		return d
	}
	a.rec.Start = a.start.Sub(a.tr.t0).Nanoseconds()
	a.rec.End = now.Sub(a.tr.t0).Nanoseconds()
	if a.stage {
		a.rec.Alloc = heapAllocated() - a.alloc0
	}
	a.tr.mu.Lock()
	a.tr.spans = append(a.tr.spans, a.rec)
	a.tr.mu.Unlock()
	return d
}

// records returns a copy of every span recorded so far.
func (t *tracer) records() []spanRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]spanRecord(nil), t.spans...)
}

// heapAllocated reads the cumulative bytes the process has allocated.
func heapAllocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// selfTimes returns every span's self time, keyed by span ID: its duration
// minus the part of its interval that its children cover. Children that
// overlap each other (concurrent fetches) are counted once.
func selfTimes(spans []spanRecord) map[uint64]time.Duration {
	kids := map[uint64][]spanRecord{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.Span]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered int64
		lo, hi := int64(0), int64(-1) // current merged interval; empty while hi < lo
		for _, c := range cs {
			start, end := max(c.Start, s.Start), min(c.End, s.End)
			if end <= start {
				continue
			}
			if start > hi {
				if hi > lo {
					covered += hi - lo
				}
				lo, hi = start, end
			} else if end > hi {
				hi = end
			}
		}
		if hi > lo {
			covered += hi - lo
		}
		out[s.Span] = s.dur() - time.Duration(covered)
	}
	return out
}

// selfByName sums self time per span name.
func selfByName(spans []spanRecord, self map[uint64]time.Duration) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += self[s.Span]
	}
	return out
}

// residualRatio is the share of the named root spans' wall time that none
// of their stage spans covers: the time the benchmark cannot attribute to
// a layer.
func residualRatio(spans []spanRecord, self map[uint64]time.Duration, root string) float64 {
	var wall, rest time.Duration
	for _, s := range spans {
		if s.Name == root {
			wall += s.dur()
			rest += self[s.Span]
		}
	}
	if wall == 0 {
		return 0
	}
	return rest.Seconds() / wall.Seconds()
}

// named returns the spans with the given name.
func named(spans []spanRecord, name string) []spanRecord {
	var out []spanRecord
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

func durations(spans []spanRecord) []time.Duration {
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur()
	}
	return out
}

// timedSource wraps the source stack that source.Options.Build returns and
// records one "source.fetch" span per FetchType call, under the current
// stage.
type timedSource struct {
	source.HistorySource
	tr *tracer
}

// FetchType times the wrapped fetch.
func (s timedSource) FetchType(ctx context.Context, t taxonomy.Type, w action.Window) ([]action.Action, error) {
	sp := s.tr.child(s.tr.current(), "source.fetch")
	defer sp.end()
	return s.HistorySource.FetchType(ctx, t, w)
}

// timedStore wraps the store a server's assistant reads and records one
// "source.pull" span per ActionsOf call, under the current stage: the
// whole-type pulls filtered down to the requested entities that a
// response-cache miss makes. Embedding keeps every optional store method
// (ActionsOfType, WithContext, FetchErr), so the program takes the same
// paths as with the bare store. Mining rebinds the store with WithContext,
// which returns the bare store, so pulls inside mining are not recorded.
type timedStore struct {
	*source.Store
	tr *tracer
}

// ActionsOf times the wrapped pull.
func (s timedStore) ActionsOf(ids []taxonomy.EntityID, w action.Window) []action.Action {
	sp := s.tr.child(s.tr.current(), "source.pull")
	defer sp.end()
	return s.Store.ActionsOf(ids, w)
}

// parentHeader carries the client's span to the server-side handler span,
// as "<trace>-<span>".
const parentHeader = "X-Bench-Parent"

func (r ref) header() string {
	return strconv.FormatUint(r.trace, 10) + "-" + strconv.FormatUint(r.span, 10)
}

func parseRef(h string) ref {
	a, b, ok := strings.Cut(h, "-")
	if !ok {
		return ref{}
	}
	t, err1 := strconv.ParseUint(a, 10, 64)
	s, err2 := strconv.ParseUint(b, 10, 64)
	if err1 != nil || err2 != nil {
		return ref{}
	}
	return ref{trace: t, span: s}
}

// handler wraps the server's handler and records one "plugin.handle" span
// per request, under the client span named by parentHeader.
func (t *tracer) handler(next http.Handler) http.Handler {
	if t == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sp := t.child(parseRef(r.Header.Get(parentHeader)), "plugin.handle")
		defer sp.end()
		next.ServeHTTP(w, r)
	})
}
