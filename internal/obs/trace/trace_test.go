package trace

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"wiclean/internal/obs"
)

func TestTraceparentRoundTrip(t *testing.T) {
	sc := SpanContext{}
	for i := range sc.TraceID {
		sc.TraceID[i] = byte(i + 1)
	}
	for i := range sc.SpanID {
		sc.SpanID[i] = byte(0xa0 + i)
	}
	v := FormatTraceparent(sc)
	if !strings.HasPrefix(v, "00-") || !strings.HasSuffix(v, "-01") {
		t.Fatalf("traceparent = %q", v)
	}
	got, ok := ParseTraceparent(v)
	if !ok || got != sc {
		t.Fatalf("round trip = %+v ok=%v, want %+v", got, ok, sc)
	}
	// Uppercase hex and future-version trailing fields still parse.
	upper := "01-" + strings.ToUpper(sc.TraceID.String()) + "-" + sc.SpanID.String() + "-00-extra"
	if got, ok := ParseTraceparent(upper); !ok || got != sc {
		t.Fatalf("lenient parse = %+v ok=%v", got, ok)
	}
}

func TestTraceparentRejectsMalformed(t *testing.T) {
	valid := FormatTraceparent(SpanContext{TraceID: TraceID{1}, SpanID: SpanID{2}})
	bad := []string{
		"",
		"00-abc-def-01",
		"zz-" + strings.Repeat("a", 32) + "-" + strings.Repeat("b", 16) + "-01",
		"ff-" + strings.Repeat("a", 32) + "-" + strings.Repeat("b", 16) + "-01",
		"00-" + strings.Repeat("0", 32) + "-" + strings.Repeat("b", 16) + "-01",
		"00-" + strings.Repeat("a", 32) + "-" + strings.Repeat("0", 16) + "-01",
		"00-" + strings.Repeat("g", 32) + "-" + strings.Repeat("b", 16) + "-01",
		strings.ReplaceAll(valid, "-01", "-0x"),
	}
	for _, v := range bad {
		if _, ok := ParseTraceparent(v); ok {
			t.Errorf("ParseTraceparent(%q) accepted malformed input", v)
		}
	}
}

// TestTraceparentLongValueAllocatesLittle parses a 1-MiB header value,
// which net/http's default header limit admits on every request.
// Splitting a value of dashes into all its fields costs a 16-byte string
// header per dash, 16 MB per request.
func TestTraceparentLongValueAllocatesLittle(t *testing.T) {
	valid := FormatTraceparent(SpanContext{TraceID: TraceID{1}, SpanID: SpanID{2}})
	for _, v := range []string{
		strings.Repeat("-", 1<<20),
		valid + strings.Repeat("-x", 1<<19),
	} {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		ParseTraceparent(v)
		runtime.ReadMemStats(&m1)
		if got := m1.TotalAlloc - m0.TotalAlloc; got >= 1<<10 {
			t.Errorf("parsing a %d-byte value %.8q... allocated %d bytes, want < 1 KiB", len(v), v, got)
		}
	}
}

// FuzzTraceparent feeds raw header values to ParseTraceparent: no input
// panics, an accepted value has non-zero IDs, and the formatted context
// parses back to itself.
func FuzzTraceparent(f *testing.F) {
	valid := FormatTraceparent(SpanContext{TraceID: TraceID{1}, SpanID: SpanID{2}})
	for _, v := range []string{
		valid,
		"",
		"-",
		"00-abc-def-01",
		" " + valid + " ",
		strings.ToUpper(valid),
		strings.Replace(valid, "00-", "ff-", 1),
		"01-" + valid[3:] + "-future-fields",
		strings.Repeat("-", 64),
	} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v string) {
		sc, ok := ParseTraceparent(v)
		if !ok {
			return
		}
		if sc.TraceID.IsZero() || sc.SpanID.IsZero() {
			t.Fatalf("ParseTraceparent(%q) accepted zero IDs: %+v", v, sc)
		}
		back, ok := ParseTraceparent(FormatTraceparent(sc))
		if !ok || back != sc {
			t.Fatalf("ParseTraceparent(%q) = %+v, but its formatted form parses to %+v, %v", v, sc, back, ok)
		}
	})
}

func TestTraceTreeExports(t *testing.T) {
	reg := obs.NewRegistry()
	var out bytes.Buffer
	tr := New(Config{Service: "test", Registry: reg, Output: &out})

	ctx, root := tr.StartRoot(context.Background(), "windows.window")
	root.SetAttrInt("window_index", 3)
	cctx, mine := StartSpan(ctx, "mining.mine")
	mine.SetAttr("seed_type", "FootballPlayer")
	_, grow := StartSpan(cctx, "mining.grow")
	grow.End()
	mine.End()
	root.End()

	recent := tr.Recent()
	if len(recent) != 1 {
		t.Fatalf("ring holds %d traces, want 1", len(recent))
	}
	exp := recent[0]
	if exp.Service != "test" || exp.Root != "windows.window" || exp.Reason != ReasonSampled {
		t.Fatalf("export header = %+v", exp)
	}
	if exp.TraceID != root.TraceIDString() || exp.Parent != "" {
		t.Fatalf("trace identity = %q parent %q", exp.TraceID, exp.Parent)
	}
	if len(exp.Spans) != 3 {
		t.Fatalf("exported %d spans, want 3", len(exp.Spans))
	}
	byName := map[string]SpanExport{}
	for i, sp := range exp.Spans {
		byName[sp.Name] = sp
		if i > 0 && exp.Spans[i-1].Start > sp.Start {
			t.Error("spans not sorted by start")
		}
	}
	if byName["windows.window"].Parent != "" {
		t.Error("root span must have no parent")
	}
	if byName["mining.mine"].Parent != byName["windows.window"].SpanID {
		t.Error("mining.mine must parent on the window root")
	}
	if byName["mining.grow"].Parent != byName["mining.mine"].SpanID {
		t.Error("mining.grow must parent on mining.mine")
	}
	if byName["windows.window"].Attrs["window_index"] != "3" ||
		byName["mining.mine"].Attrs["seed_type"] != "FootballPlayer" {
		t.Errorf("attributes lost: %+v", exp.Spans)
	}

	// The JSONL sink got the same export.
	var fromFile TraceExport
	if err := json.Unmarshal(bytes.TrimSpace(out.Bytes()), &fromFile); err != nil {
		t.Fatalf("JSONL output: %v", err)
	}
	if fromFile.TraceID != exp.TraceID || len(fromFile.Spans) != 3 {
		t.Fatalf("JSONL export = %+v", fromFile)
	}

	// Every ended span folds into the obs aggregate under its own name.
	snap := reg.Snapshot()
	for _, name := range []string{"windows.window", "mining.mine", "mining.grow"} {
		if snap.Spans[name].Count != 1 {
			t.Errorf("obs aggregate %q count = %d, want 1", name, snap.Spans[name].Count)
		}
	}
	if snap.Counters[obs.TracesStarted] != 1 || snap.Counters[obs.TracesExported] != 1 {
		t.Errorf("trace counters = %v", snap.Counters)
	}
}

// TestErroredTraceExportsAsError pins the export reason: every completed
// trace exports, a trace in which a span recorded an error reads
// "error", and any other reads "sampled".
func TestErroredTraceExportsAsError(t *testing.T) {
	reg := obs.NewRegistry()
	tr := New(Config{Registry: reg})

	_, root := tr.StartRoot(context.Background(), "quiet")
	root.End()
	_, bad := tr.StartRoot(context.Background(), "failing")
	bad.Fail(errors.New("boom"))
	bad.End()

	recent := tr.Recent()
	if len(recent) != 2 || recent[0].Reason != ReasonSampled || recent[1].Reason != ReasonError {
		t.Fatalf("exports = %+v, want a sampled and an errored trace", recent)
	}
	if recent[1].Spans[0].Error != "boom" {
		t.Fatalf("span error = %q", recent[1].Spans[0].Error)
	}
	if got := reg.Snapshot().Counters[obs.TracesExported]; got != 2 {
		t.Errorf("%s = %d, want 2", obs.TracesExported, got)
	}
}

func TestRingEvictsOldest(t *testing.T) {
	tr := newTracer(Config{}, 2)
	for i := 0; i < 3; i++ {
		_, root := tr.StartRoot(context.Background(), fmt.Sprintf("t%d", i))
		root.End()
	}
	recent := tr.Recent()
	if len(recent) != 2 {
		t.Fatalf("ring holds %d, want 2", len(recent))
	}
	if recent[0].Root != "t1" || recent[1].Root != "t2" {
		t.Fatalf("ring order = %s, %s; want t1, t2 (oldest evicted, oldest-first order)",
			recent[0].Root, recent[1].Root)
	}
}

func TestRemoteParentJoinsTrace(t *testing.T) {
	tr := New(Config{})
	parent := SpanContext{TraceID: TraceID{9, 9}, SpanID: SpanID{7}}
	ctx, root := tr.StartRemote(context.Background(), "http.request", parent)
	if root.TraceID() != parent.TraceID {
		t.Fatal("remote root must adopt the propagated trace ID")
	}
	_, child := StartSpan(ctx, "inner")
	child.End()
	root.End()
	recent := tr.Recent()
	if len(recent) != 1 {
		t.Fatalf("ring = %d", len(recent))
	}
	if recent[0].TraceID != parent.TraceID.String() || recent[0].Parent != parent.SpanID.String() {
		t.Fatalf("joined export = %+v", recent[0])
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	ctx, root := tr.StartRoot(context.Background(), "x")
	if root != nil || ctx != context.Background() {
		t.Fatal("nil tracer must hand back ctx unchanged and a nil span")
	}
	// All span operations are no-ops on nil.
	root.SetAttr("k", "v")
	root.SetAttrInt("n", 1)
	root.Fail(errors.New("x"))
	if root.End() != 0 || root.TraceIDString() != "" || !root.TraceID().IsZero() {
		t.Fatal("nil span accessors must return zero values")
	}
	if _, sp := StartSpan(context.Background(), "y"); sp != nil {
		t.Fatal("StartSpan without a trace in ctx must return a nil span")
	}
	if FromContext(nil) != nil || FromContext(context.Background()) != nil {
		t.Fatal("FromContext must be nil-safe")
	}
	if tr.Recent() != nil {
		t.Fatal("nil tracer accessors")
	}
}

func TestDoubleEndIsNoOp(t *testing.T) {
	tr := New(Config{})
	_, root := tr.StartRoot(context.Background(), "once")
	root.End()
	if d := root.End(); d != 0 {
		t.Fatalf("second End = %v, want 0", d)
	}
	if got := len(tr.Recent()); got != 1 {
		t.Fatalf("double End exported %d traces", got)
	}
}

// TestConcurrentTracesDoNotInterleave runs many traced requests in
// parallel (run under -race in CI): every exported trace must hold
// exactly its own spans with intact parent links — concurrent traces
// share a tracer but never a span tree.
func TestConcurrentTracesDoNotInterleave(t *testing.T) {
	var out bytes.Buffer
	tr := New(Config{Output: &out})
	const workers = 16
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tag := fmt.Sprintf("req%02d", i)
			ctx, root := tr.StartRoot(context.Background(), "root-"+tag)
			for j := 0; j < 4; j++ {
				cctx, sp := StartSpan(ctx, fmt.Sprintf("child-%s-%d", tag, j))
				_, leaf := StartSpan(cctx, fmt.Sprintf("leaf-%s-%d", tag, j))
				leaf.End()
				sp.End()
			}
			root.End()
		}(i)
	}
	wg.Wait()

	recent := tr.Recent()
	if len(recent) != workers {
		t.Fatalf("exported %d traces, want %d", len(recent), workers)
	}
	for _, exp := range recent {
		tag := strings.TrimPrefix(exp.Root, "root-")
		if len(exp.Spans) != 9 { // root + 4×(child+leaf)
			t.Fatalf("trace %s holds %d spans, want 9", exp.TraceID, len(exp.Spans))
		}
		ids := map[string]bool{}
		for _, sp := range exp.Spans {
			if !strings.Contains(sp.Name, tag) {
				t.Fatalf("trace %s (%s) contains foreign span %s", exp.TraceID, tag, sp.Name)
			}
			ids[sp.SpanID] = true
		}
		for _, sp := range exp.Spans {
			if sp.Parent != "" && !ids[sp.Parent] {
				t.Fatalf("span %s parents on %s, which is outside its trace", sp.Name, sp.Parent)
			}
		}
	}

	// The JSONL sink saw one intact line per trace.
	sc := bufio.NewScanner(&out)
	lines := 0
	for sc.Scan() {
		lines++
		var exp TraceExport
		if err := json.Unmarshal(sc.Bytes(), &exp); err != nil {
			t.Fatalf("JSONL line %d: %v", lines, err)
		}
	}
	if lines != workers {
		t.Fatalf("JSONL sink holds %d lines, want %d", lines, workers)
	}
}
