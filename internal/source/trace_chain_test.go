package source

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"wiclean/internal/action"
	"wiclean/internal/obs/trace"
)

// syncBuffer serializes writes: miner-side exports happen on mining
// goroutines while the test reads afterwards.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) exports(t *testing.T) []trace.TraceExport {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []trace.TraceExport
	for _, line := range bytes.Split(bytes.TrimSpace(s.b.Bytes()), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var exp trace.TraceExport
		if err := json.Unmarshal(line, &exp); err != nil {
			t.Fatalf("trace export line %q: %v", line, err)
		}
		out = append(out, exp)
	}
	return out
}

// TestTraceTwoHopChain is the cross-process stitching test: hop A (a
// miner fetching over -source http) opens a trace, the HTTP source
// injects its traceparent outbound, and hop B (a /history endpoint that
// parses the inbound traceparent and opens its http.request span with
// StartRemote, as wiclean-server does) joins the same trace.
// Both processes export their halves under one trace ID, with hop B's
// root span parenting on a span that exists in hop A's half — exactly
// the parentage wiclean-trace uses to stitch the merged tree. Hop A reads
// through the production Fetcher, so its half has the production shape:
// window → source.cache → source.fetch, and hop B's http.request parents
// on that source.fetch.
func TestTraceTwoHopChain(t *testing.T) {
	w := newTestWorld(t)

	// Hop B: the remote history server, its own tracer and export sink.
	var outB syncBuffer
	tracerB := trace.New(trace.Config{Service: "server-b", Output: &outB})
	history := HistoryHandler(w.hist, func() action.Window { return w.span })
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		parent, _ := trace.ParseTraceparent(r.Header.Get(trace.Header))
		ctx, sp := tracerB.StartRemote(r.Context(), "http.request", parent)
		sp.SetAttr("method", r.Method)
		history.ServeHTTP(rw, r.WithContext(ctx))
		sp.End()
	}))
	defer srv.Close()

	// Hop A: the miner's Fetcher over the wire, with its own tracer.
	var outA syncBuffer
	tracerA := trace.New(trace.Config{Service: "miner-a", Output: &outA})
	stack := NewFetcher(NewHTTP(srv.URL, w.reg, srv.Client()), nil)

	ctx, root := tracerA.StartRoot(context.Background(), "windows.window")
	got, err := stack.FetchType(ctx, "FootballPlayer", w.span)
	if err != nil {
		t.Fatal(err)
	}
	if want := w.hist.ActionsOf(w.players, w.span); len(got) != len(want) {
		t.Fatalf("fetched %d actions, want %d", len(got), len(want))
	}
	root.End()

	expsA, expsB := outA.exports(t), outB.exports(t)
	if len(expsA) != 1 || len(expsB) != 1 {
		t.Fatalf("exports: hop A %d, hop B %d, want 1 each", len(expsA), len(expsB))
	}
	a, b := expsA[0], expsB[0]

	// One trace ID spans both processes.
	if a.TraceID != b.TraceID {
		t.Fatalf("trace IDs diverge: hop A %s, hop B %s", a.TraceID, b.TraceID)
	}
	if a.Service != "miner-a" || b.Service != "server-b" {
		t.Fatalf("services = %q, %q", a.Service, b.Service)
	}

	// Hop A's half: the window root, the cache lookup that missed, and
	// the fetch beneath it.
	spansA := map[string]trace.SpanExport{}
	ids := map[string]bool{}
	for _, sp := range a.Spans {
		spansA[sp.Name] = sp
		ids[sp.SpanID] = true
	}
	if len(a.Spans) != 3 {
		t.Fatalf("hop A exported %d spans, want window, cache and fetch: %+v", len(a.Spans), a.Spans)
	}
	cache, ok := spansA["source.cache"]
	if !ok {
		t.Fatalf("hop A exported no source.cache span: %+v", a.Spans)
	}
	if cache.Parent != spansA["windows.window"].SpanID {
		t.Fatal("source.cache must parent on the window root")
	}
	if cache.Attrs["type"] != "FootballPlayer" || cache.Attrs["result"] != "miss" {
		t.Fatalf("cache attrs = %v", cache.Attrs)
	}
	fetch, ok := spansA["source.fetch"]
	if !ok {
		t.Fatalf("hop A exported no source.fetch span: %+v", a.Spans)
	}
	if fetch.Parent != cache.SpanID {
		t.Fatal("source.fetch must parent on the source.cache span")
	}
	if fetch.Attrs["type"] != "FootballPlayer" || fetch.Attrs["attempts"] != "1" || fetch.Attrs["retries"] != "0" {
		t.Fatalf("fetch attrs = %v", fetch.Attrs)
	}

	// Hop B's half: an http.request root whose remote parent is a span
	// from hop A — the stitch point.
	if b.Root != "http.request" {
		t.Fatalf("hop B root = %q", b.Root)
	}
	if b.Parent == "" || !ids[b.Parent] {
		t.Fatalf("hop B parent %q is not a span of hop A (%v)", b.Parent, ids)
	}
	if b.Parent != fetch.SpanID {
		t.Fatalf("hop B must parent on the injecting fetch span %s, got %s", fetch.SpanID, b.Parent)
	}
	req := b.Spans[0]
	if req.Name != "http.request" || req.Attrs["method"] != "GET" || req.Attrs["history_type"] != "FootballPlayer" {
		t.Fatalf("request span %s attrs = %v", req.Name, req.Attrs)
	}
}

// TestTraceInjectWithoutSpanSendsNoHeader pins the disabled-tracing
// wire behavior: a context with no span must not emit a traceparent.
func TestTraceInjectWithoutSpanSendsNoHeader(t *testing.T) {
	w := newTestWorld(t)
	var sawHeader string
	inner := HistoryHandler(w.hist, func() action.Window { return w.span })
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		sawHeader = r.Header.Get(trace.Header)
		inner.ServeHTTP(rw, r)
	}))
	defer srv.Close()

	src := NewHTTP(srv.URL, w.reg, srv.Client())
	if _, err := src.FetchType(context.Background(), "FootballPlayer", w.span); err != nil {
		t.Fatal(err)
	}
	if sawHeader != "" {
		t.Fatalf("untraced fetch sent traceparent %q", sawHeader)
	}
}
