package obs

import (
	"sync"
	"time"
)

// spanStat aggregates finished spans of one name.
type spanStat struct {
	mu    sync.Mutex
	count int64
	total time.Duration
	min   time.Duration
	max   time.Duration
}

// ObserveSpan folds one finished span into the per-name aggregate behind
// Snapshot.Spans and the SpanSeconds summary. The trace layer
// (internal/obs/trace) calls it as each trace span ends, under the span's
// own name. Nil-safe.
func (r *Registry) ObserveSpan(name string, elapsed time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	st := r.spans[name]
	if st == nil {
		st = &spanStat{}
		r.spans[name] = st
	}
	r.mu.Unlock()

	st.mu.Lock()
	st.count++
	st.total += elapsed
	if st.count == 1 || elapsed < st.min {
		st.min = elapsed
	}
	if elapsed > st.max {
		st.max = elapsed
	}
	st.mu.Unlock()
}
