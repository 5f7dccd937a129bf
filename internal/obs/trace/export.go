package trace

import (
	"encoding/json"
	"net/http"
	"sort"
	"time"

	"wiclean/internal/obs"
)

// SpanExport is one finished span in a trace export. Field order is the
// serialization order, fixed so exports are deterministic; Attrs is a
// map, which encoding/json renders in sorted key order.
type SpanExport struct {
	Name    string            `json:"name"`
	SpanID  string            `json:"span_id"`
	Parent  string            `json:"parent_id,omitempty"`
	Start   int64             `json:"start_unix_ns"`
	Elapsed int64             `json:"elapsed_ns"`
	Error   string            `json:"error,omitempty"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// Export reasons: every completed trace exports, and its reason says
// whether a span of it recorded an error.
const (
	// ReasonError marks a trace in which a span recorded an error.
	ReasonError = "error"
	// ReasonSampled marks every other trace.
	ReasonSampled = "sampled"
)

// TraceExport is one completed trace as written to the JSONL sink and
// served at /debug/traces: this process's spans of the trace, sorted by
// (start, span ID). A cross-process trace appears as one TraceExport
// per participating process sharing a trace ID; wiclean-trace stitches
// them back together by that ID.
type TraceExport struct {
	TraceID string `json:"trace_id"`
	Service string `json:"service,omitempty"`
	Root    string `json:"root"`
	// Parent is the remote parent span of this process's root span —
	// non-empty exactly when the trace was joined via a traceparent.
	Parent  string       `json:"parent_id,omitempty"`
	Start   int64        `json:"start_unix_ns"`
	Elapsed int64        `json:"elapsed_ns"`
	Reason  string       `json:"reason"`
	Spans   []SpanExport `json:"spans"`
}

// finish exports a completed trace to the ring and the JSONL sink.
func (t *Tracer) finish(at *activeTrace, root *Span, elapsed time.Duration) {
	at.mu.Lock()
	errored := at.errored
	spans := at.spans
	at.spans = nil
	at.mu.Unlock()

	reason := ReasonSampled
	if errored {
		reason = ReasonError
	}
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].SpanID < spans[j].SpanID
	})
	exp := TraceExport{
		TraceID: at.id.String(),
		Service: t.cfg.Service,
		Root:    root.name,
		Start:   root.start.UnixNano(),
		Elapsed: elapsed.Nanoseconds(),
		Reason:  reason,
		Spans:   spans,
	}
	if !root.parent.IsZero() {
		exp.Parent = root.parent.String()
	}
	t.cfg.Registry.Counter(obs.TracesExported).Inc()

	var line []byte
	if t.cfg.Output != nil {
		// Marshal outside the lock; only the write is serialized.
		line, _ = json.Marshal(exp)
		line = append(line, '\n')
	}
	t.mu.Lock()
	if len(t.ring) < t.ringSize {
		t.ring = append(t.ring, exp)
	} else {
		t.ring[t.ringPos] = exp
	}
	t.ringPos = (t.ringPos + 1) % t.ringSize
	if line != nil {
		_, _ = t.cfg.Output.Write(line)
	}
	t.mu.Unlock()
}

// Recent returns the completed-trace ring in completion order, oldest
// first. Nil-safe (nil).
func (t *Tracer) Recent() []TraceExport {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceExport, 0, len(t.ring))
	if len(t.ring) < t.ringSize {
		return append(out, t.ring...)
	}
	out = append(out, t.ring[t.ringPos:]...)
	return append(out, t.ring[:t.ringPos]...)
}

// Handler serves the completed-trace ring as JSON — mount it at
// GET /debug/traces. ?trace_id=<32 hex> filters to one trace's exports.
// Nil-safe: a nil tracer serves an empty list.
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		traces := t.Recent()
		if want := r.URL.Query().Get("trace_id"); want != "" {
			kept := traces[:0:0]
			for _, tr := range traces {
				if tr.TraceID == want {
					kept = append(kept, tr)
				}
			}
			traces = kept
		}
		if traces == nil {
			traces = []TraceExport{}
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{"traces": traces})
	})
}
