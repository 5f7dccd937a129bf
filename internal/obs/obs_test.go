package obs

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("c_total") != c {
		t.Fatal("same name should return the same counter")
	}
	g := r.Gauge("g")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestConcurrentCountersAndHistograms(t *testing.T) {
	r := NewRegistry()
	const goroutines, per = 16, 1000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				r.Counter("shared_total").Inc()
				r.Gauge("level").Add(1)
				r.Histogram("h", CountBuckets).Observe(float64(j % 7))
				r.ObserveSpan("work", time.Duration(1+j%7)*time.Millisecond)
			}
		}(i)
	}
	wg.Wait()
	want := int64(goroutines * per)
	if got := r.Counter("shared_total").Value(); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	if got := r.Gauge("level").Value(); got != float64(want) {
		t.Errorf("gauge = %v, want %d", got, want)
	}
	h := r.Histogram("h", nil)
	if got := h.Count(); got != uint64(want) {
		t.Errorf("histogram count = %d, want %d", got, want)
	}
	var bucketSum uint64
	s := r.Snapshot()
	for _, c := range s.Histograms["h"].Counts {
		bucketSum += c
	}
	if bucketSum != uint64(want) {
		t.Errorf("bucket total = %d, want %d", bucketSum, want)
	}
	// Each goroutine observes 1..7 ms in turn: 142 full cycles of 28 ms
	// and 1+2+3+4+5+6 ms over the last six observations.
	wantTotal := float64(goroutines) * (142*28 + 21) / 1000
	work := s.Spans["work"]
	if work.Count != want || work.MinSeconds != 0.001 || work.MaxSeconds != 0.007 ||
		math.Abs(work.TotalSeconds-wantTotal) > 1e-6 {
		t.Errorf("span aggregate = %+v, want count %d, min 0.001, max 0.007, total %v", work, want, wantTotal)
	}
}

func TestSnapshotStability(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Add(3)
	r.Gauge("b").Set(1.25)
	r.Histogram("c_seconds", DurationBuckets).Observe(0.003)
	r.ObserveSpan("s", time.Millisecond)

	s1, s2 := r.Snapshot(), r.Snapshot()
	// Quiesced registry: repeated snapshots must agree exactly.
	j1, _ := json.Marshal(s1)
	j2, _ := json.Marshal(s2)
	if string(j1) != string(j2) {
		t.Fatalf("snapshots differ:\n%s\n%s", j1, j2)
	}
	var back Snapshot
	if err := json.Unmarshal(j1, &back); err != nil {
		t.Fatalf("snapshot JSON round-trip: %v", err)
	}
	if !reflect.DeepEqual(back.Counters, s1.Counters) {
		t.Fatalf("counters round-trip: %v vs %v", back.Counters, s1.Counters)
	}

	var p1, p2 strings.Builder
	_ = s1.WritePrometheus(&p1)
	_ = s2.WritePrometheus(&p2)
	if p1.String() != p2.String() {
		t.Fatal("prometheus rendering is not deterministic")
	}
}

// TestSnapshotOmitsEmptySpans checks that a snapshot's JSON has a spans
// key only once a span has been observed: a registry without a tracer
// never sees one, and its reports should not carry an always-empty map.
func TestSnapshotOmitsEmptySpans(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Inc()
	hasSpans := func() bool {
		b, err := json.Marshal(r.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(b, &keys); err != nil {
			t.Fatal(err)
		}
		_, ok := keys["spans"]
		return ok
	}
	if hasSpans() {
		t.Fatal("snapshot without an observed span has a spans key")
	}
	r.ObserveSpan("s", time.Millisecond)
	if !hasSpans() {
		t.Fatal("snapshot after ObserveSpan lacks the spans key")
	}
}

func TestPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total").Add(7)
	r.Counter(Labeled("req_total", "path", "/a", "code", "2xx")).Add(2)
	r.Gauge("width_days").Set(14)
	h := r.Histogram("lat_seconds", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.5)
	h.Observe(5)
	hl := r.Histogram(Labeled("lab_seconds", "path", "/a"), []float64{1})
	hl.Observe(0.5)
	r.ObserveSpan("mine", 250*time.Millisecond)

	var b strings.Builder
	if err := r.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE x_total counter",
		"x_total 7",
		`req_total{path="/a",code="2xx"} 2`,
		"# TYPE width_days gauge",
		"width_days 14",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.01"} 1`,
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 2`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		"lat_seconds_sum 5.505",
		"lat_seconds_count 3",
		`lab_seconds_bucket{path="/a",le="1"} 1`,
		`lab_seconds_bucket{path="/a",le="+Inf"} 1`,
		`lab_seconds_sum{path="/a"} 0.5`,
		`lab_seconds_count{path="/a"} 1`,
		"# TYPE wiclean_span_duration_seconds summary",
		`wiclean_span_duration_seconds_sum{span="mine"} 0.25`,
		`wiclean_span_duration_seconds_count{span="mine"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Counter("x").Add(10)
	if r.Counter("x").Value() != 0 {
		t.Error("nil counter should read 0")
	}
	r.Gauge("g").Set(3)
	r.Gauge("g").Add(1)
	if r.Gauge("g").Value() != 0 {
		t.Error("nil gauge should read 0")
	}
	h := r.Histogram("h", DurationBuckets)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil histogram should read 0")
	}
	r.ObserveSpan("s", time.Second)
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms)+len(s.Spans) != 0 {
		t.Error("nil snapshot should be empty")
	}
	var b strings.Builder
	if err := s.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	r.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("nil MetricsHandler status = %d", rec.Code)
	}
}

func TestLabeled(t *testing.T) {
	if got := Labeled("m"); got != "m" {
		t.Errorf("Labeled no pairs = %q", got)
	}
	got := Labeled("m", "a", `x"y`, "b", `p\q`)
	want := `m{a="x\"y",b="p\\q"}`
	if got != want {
		t.Errorf("Labeled = %q, want %q", got, want)
	}
}

func TestHistogramQuantile(t *testing.T) {
	// 10 observations: 4 in (0, 1], 4 in (1, 2], 2 in (2, +Inf).
	filled := HistogramSnapshot{
		Bounds: []float64{1, 2},
		Counts: []uint64{4, 4, 2},
		Count:  10,
		Sum:    14,
	}
	empty := HistogramSnapshot{Bounds: []float64{1, 2}, Counts: []uint64{0, 0, 0}}
	malformed := HistogramSnapshot{Bounds: []float64{1, 2}, Counts: []uint64{4}, Count: 4}

	tests := []struct {
		name string
		h    HistogramSnapshot
		q    float64
		want float64
	}{
		{"median", filled, 0.5, 1.25},
		{"p90-clamps-to-top-bound", filled, 0.9, 2},
		{"q0", filled, 0, 0},
		{"q1-inf-bucket-clamps", filled, 1, 2},
		{"q-below-range-clamps", filled, -3, 0},
		{"q-above-range-clamps", filled, 7, 2},
		{"q-nan-clamps-to-zero", filled, math.NaN(), 0},
		{"empty-histogram", empty, 0.5, 0},
		{"empty-histogram-q1", empty, 1, 0},
		{"malformed-counts", malformed, 0.5, 0},
		{"zero-value", HistogramSnapshot{}, 0.5, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.h.Quantile(tc.q)
			if math.IsNaN(got) || math.Abs(got-tc.want) > 1e-9 {
				t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
			}
		})
	}
}

func TestHistogramQuantileLiveRegistry(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q_seconds", []float64{0.1, 1, 10})
	// Empty live histogram is total too.
	if got := r.Snapshot().Histograms["q_seconds"].Quantile(0.99); got != 0 {
		t.Fatalf("empty live histogram Quantile = %v, want 0", got)
	}
	for i := 0; i < 100; i++ {
		h.Observe(0.5)
	}
	got := r.Snapshot().Histograms["q_seconds"].Quantile(0.5)
	if got <= 0.1 || got > 1 {
		t.Errorf("median of 0.5s observations = %v, want within (0.1, 1]", got)
	}
}

// TestHistogramExemplars checks that ObserveWithExemplar stamps the
// owning bucket, the snapshot carries it, and WritePrometheus renders
// the OpenMetrics-style exemplar suffix on that bucket line.
func TestHistogramExemplars(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", []float64{0.01, 0.1, 1})
	h.Observe(0.005)                                         // no exemplar
	h.ObserveWithExemplar(0.05, "aaaa1111")                  // bucket le=0.1
	h.ObserveWithExemplar(0.07, "bbbb2222")                  // same bucket: last write wins
	h.ObserveDurationWithExemplar(5*time.Second, "cccc3333") // +Inf bucket

	hs := r.Snapshot().Histograms["lat_seconds"]
	if len(hs.Exemplars) != len(hs.Counts) {
		t.Fatalf("exemplars len = %d, want %d", len(hs.Exemplars), len(hs.Counts))
	}
	if hs.Exemplars[0].TraceID != "" {
		t.Errorf("bucket 0 exemplar = %+v, want none", hs.Exemplars[0])
	}
	if hs.Exemplars[1].TraceID != "bbbb2222" || hs.Exemplars[1].Value != 0.07 {
		t.Errorf("bucket 1 exemplar = %+v, want latest write bbbb2222", hs.Exemplars[1])
	}
	if hs.Exemplars[3].TraceID != "cccc3333" {
		t.Errorf("+Inf exemplar = %+v", hs.Exemplars[3])
	}

	var sb strings.Builder
	if err := r.Snapshot().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `# {trace_id="bbbb2222"} 0.07`) {
		t.Fatalf("exemplar suffix missing from exposition:\n%s", out)
	}
	if strings.Contains(out, "aaaa1111") {
		t.Fatalf("replaced exemplar still rendered:\n%s", out)
	}

	// Empty trace IDs never record an exemplar (plain Observe path), and
	// the snapshot omits the slice entirely.
	r2 := NewRegistry()
	r2.Histogram("x", []float64{1}).Observe(0.5)
	if ex := r2.Snapshot().Histograms["x"].Exemplars; ex != nil {
		t.Fatalf("plain Observe produced exemplars: %+v", ex)
	}
}
