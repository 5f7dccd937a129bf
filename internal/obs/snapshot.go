package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// HistogramSnapshot is the frozen state of one histogram. Counts has one
// entry per bound plus a final +Inf slot; entries are per-bucket (not
// cumulative — WritePrometheus accumulates). Exemplars, when present,
// parallels Counts: entry i is bucket i's latest trace-ID exemplar, with
// a zero entry for buckets that never saw one. It is omitted entirely
// when no bucket holds an exemplar.
type HistogramSnapshot struct {
	Bounds    []float64  `json:"bounds"`
	Counts    []uint64   `json:"counts"`
	Count     uint64     `json:"count"`
	Sum       float64    `json:"sum"`
	Exemplars []Exemplar `json:"exemplars,omitempty"`
}

// Quantile estimates the q-quantile of the observations by linear
// interpolation inside the owning bucket, Prometheus
// histogram_quantile-style. Observations in the +Inf bucket clamp to the
// highest finite bound. The function is total: q is clamped into [0, 1]
// (NaN counts as 0), and an empty or malformed histogram — zero
// observations, no bounds, or a Counts slice that does not line up with
// Bounds — reports 0 rather than panicking. The estimate's resolution is
// the bucket layout — good enough for the latency percentiles the bench
// reports, not for exact order statistics.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 || len(h.Counts) != len(h.Bounds)+1 {
		return 0
	}
	if math.IsNaN(q) || q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	cum := uint64(0)
	for i, c := range h.Counts {
		cum += c
		if float64(cum) >= rank && c > 0 {
			if i >= len(h.Bounds) { // +Inf bucket
				return h.Bounds[len(h.Bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.Bounds[i-1]
			}
			hi := h.Bounds[i]
			inBucket := float64(c)
			below := float64(cum) - inBucket
			frac := (rank - below) / inBucket
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
	}
	return h.Bounds[len(h.Bounds)-1]
}

// SpanSnapshot is the frozen aggregate of the spans of one name.
type SpanSnapshot struct {
	Count        int64   `json:"count"`
	TotalSeconds float64 `json:"total_seconds"`
	MinSeconds   float64 `json:"min_seconds"`
	MaxSeconds   float64 `json:"max_seconds"`
}

// Snapshot is a point-in-time copy of every metric in a registry,
// JSON-serializable as-is.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	Spans      map[string]SpanSnapshot      `json:"spans,omitempty"`
}

// Snapshot freezes the registry. Nil-safe: a nil registry yields an empty
// (but fully allocated) snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
		Spans:      map[string]SpanSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	spans := make(map[string]*spanStat, len(r.spans))
	for k, v := range r.spans {
		spans[k] = v
	}
	r.mu.RUnlock()

	for k, c := range counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		s.Gauges[k] = g.Value()
	}
	for k, h := range hists {
		hs := HistogramSnapshot{
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]uint64, len(h.buckets)),
			Count:  h.Count(),
			Sum:    h.Sum(),
		}
		for i := range h.buckets {
			hs.Counts[i] = h.buckets[i].Load()
		}
		for i := range h.exemplars {
			if ex := h.exemplars[i].Load(); ex != nil {
				if hs.Exemplars == nil {
					hs.Exemplars = make([]Exemplar, len(h.buckets))
				}
				hs.Exemplars[i] = *ex
			}
		}
		s.Histograms[k] = hs
	}
	for k, st := range spans {
		st.mu.Lock()
		s.Spans[k] = SpanSnapshot{
			Count:        st.count,
			TotalSeconds: st.total.Seconds(),
			MinSeconds:   st.min.Seconds(),
			MaxSeconds:   st.max.Seconds(),
		}
		st.mu.Unlock()
	}
	return s
}

// Labeled builds a metric name carrying a Prometheus label block:
// Labeled("x_total", "path", "/a") == `x_total{path="/a"}`. Pairs are
// key, value, key, value, ...; values are escaped per the text format.
func Labeled(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// splitName separates a possibly-labeled metric name into its base name
// and the label body (without braces; empty when unlabeled).
func splitName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

// joinLabels merges two label bodies with a comma.
func joinLabels(a, b string) string {
	switch {
	case a == "":
		return b
	case b == "":
		return a
	default:
		return a + "," + b
	}
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (v0.0.4): counters and gauges verbatim, histograms with
// cumulative le buckets plus _sum/_count, span aggregates as a summary
// keyed by a span label. Output order is deterministic.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	typed := map[string]bool{} // base names with an emitted # TYPE line
	emitType := func(base, kind string) {
		if !typed[base] {
			typed[base] = true
			fmt.Fprintf(w, "# TYPE %s %s\n", base, kind)
		}
	}

	writePlain := func(names []string, kind string, value func(string) string) {
		sort.Strings(names)
		for _, name := range names {
			base, labels := splitName(name)
			emitType(base, kind)
			if labels != "" {
				fmt.Fprintf(w, "%s{%s} %s\n", base, labels, value(name))
			} else {
				fmt.Fprintf(w, "%s %s\n", base, value(name))
			}
		}
	}

	counterNames := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		counterNames = append(counterNames, name)
	}
	writePlain(counterNames, "counter", func(n string) string {
		return fmt.Sprintf("%d", s.Counters[n])
	})

	gaugeNames := make([]string, 0, len(s.Gauges))
	for name := range s.Gauges {
		gaugeNames = append(gaugeNames, name)
	}
	writePlain(gaugeNames, "gauge", func(n string) string {
		return formatFloat(s.Gauges[n])
	})

	histNames := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		histNames = append(histNames, name)
	}
	sort.Strings(histNames)
	for _, name := range histNames {
		h := s.Histograms[name]
		base, labels := splitName(name)
		emitType(base, "histogram")
		cum := uint64(0)
		for i, c := range h.Counts {
			cum += c
			le := "+Inf"
			if i < len(h.Bounds) {
				le = formatFloat(h.Bounds[i])
			}
			fmt.Fprintf(w, "%s_bucket{%s} %d", base,
				joinLabels(labels, fmt.Sprintf("le=%q", le)), cum)
			// OpenMetrics-style exemplar suffix: ties the bucket to one
			// concrete trace ID so a /metrics tail leads to /debug/traces.
			if i < len(h.Exemplars) && h.Exemplars[i].TraceID != "" {
				fmt.Fprintf(w, " # {trace_id=%q} %s",
					h.Exemplars[i].TraceID, formatFloat(h.Exemplars[i].Value))
			}
			fmt.Fprintln(w)
		}
		if labels != "" {
			fmt.Fprintf(w, "%s_sum{%s} %s\n", base, labels, formatFloat(h.Sum))
			fmt.Fprintf(w, "%s_count{%s} %d\n", base, labels, h.Count)
		} else {
			fmt.Fprintf(w, "%s_sum %s\n", base, formatFloat(h.Sum))
			fmt.Fprintf(w, "%s_count %d\n", base, h.Count)
		}
	}

	spanNames := make([]string, 0, len(s.Spans))
	for name := range s.Spans {
		spanNames = append(spanNames, name)
	}
	sort.Strings(spanNames)
	if len(spanNames) > 0 {
		emitType(SpanSeconds, "summary")
	}
	for _, name := range spanNames {
		sp := s.Spans[name]
		fmt.Fprintf(w, "%s_sum{span=%q} %s\n", SpanSeconds, name, formatFloat(sp.TotalSeconds))
		fmt.Fprintf(w, "%s_count{span=%q} %d\n", SpanSeconds, name, sp.Count)
	}
	return nil
}
