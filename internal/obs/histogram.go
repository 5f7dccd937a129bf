package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Histogram counts observations into fixed, strictly increasing bucket
// upper bounds, Prometheus-style: counts[i] is the number of observations
// v <= bounds[i]; the final slot is the implicit +Inf bucket. Sum and
// Count accumulate alongside. All updates are atomic and lock-free.
//
// Each bucket additionally holds at most one exemplar — the trace ID and
// value of the latest observation recorded through ObserveWithExemplar —
// linking a /metrics latency tail to a concrete trace in the trace ring
// or JSONL export (OpenMetrics-style exemplar linkage).
type Histogram struct {
	bounds    []float64
	buckets   []atomic.Uint64 // len(bounds)+1; last is +Inf
	count     atomic.Uint64
	sumBits   atomic.Uint64              // float64 bits, CAS-accumulated
	exemplars []atomic.Pointer[Exemplar] // len(bounds)+1; last write wins
}

// Exemplar ties one observed value to the trace it came from.
type Exemplar struct {
	TraceID string  `json:"trace_id"`
	Value   float64 `json:"value"`
}

// DurationBuckets are the default latency bounds, in seconds.
var DurationBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// CountBuckets are roughly log-scaled bounds for size-like observations
// (rows joined, candidates scanned, ...).
var CountBuckets = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 5000, 25000}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	return &Histogram{
		bounds:    bs,
		buckets:   make([]atomic.Uint64, len(bs)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(bs)+1),
	}
}

// Observe records one observation; nil-safe.
func (h *Histogram) Observe(v float64) { h.ObserveWithExemplar(v, "") }

// ObserveWithExemplar records one observation and, when traceID is
// non-empty, stamps it (with the value) as the owning bucket's exemplar,
// replacing any earlier one. Nil-safe.
func (h *Histogram) ObserveWithExemplar(v float64, traceID string) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	if traceID != "" {
		h.exemplars[i].Store(&Exemplar{TraceID: traceID, Value: v})
	}
	for {
		old := h.sumBits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// ObserveDuration records d in seconds; nil-safe.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// ObserveDurationWithExemplar records d in seconds with a trace-ID
// exemplar; nil-safe.
func (h *Histogram) ObserveDurationWithExemplar(d time.Duration, traceID string) {
	h.ObserveWithExemplar(d.Seconds(), traceID)
}

// Count returns the total number of observations; nil-safe (0).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values; nil-safe (0).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Histogram returns (creating on first use) the named histogram with the
// given bucket bounds; bounds are fixed by the first caller. A nil
// registry returns a nil, no-op histogram.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		if len(bounds) == 0 {
			bounds = DurationBuckets
		}
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}
