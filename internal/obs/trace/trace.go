// Package trace is WiClean's one span system: request-scoped trace
// trees. A trace.Span belongs to exactly one Trace — one mined window,
// one HTTP request — identified by a 128-bit trace ID that travels
// through context.Context inside a process and through the W3C
// traceparent header between processes. A two-hop chained-server mine
// (miner A fetching from wiclean-server B via "-source http") therefore
// yields one stitched trace whose spans cover both processes.
//
// The design is observe-only: spans record timings and attributes but
// never feed back into mining decisions, so mining output is
// byte-identical with tracing on or off. Every operation on a nil
// *Tracer or nil *Span is a no-op, mirroring the obs nil-safety
// contract. Each ended span folds into the Config.Registry's aggregate
// under its own name (obs.Registry.ObserveSpan), which is where the
// /metrics span summary comes from: without a tracer there is no
// summary.
//
// Every completed trace exports deterministically — spans sorted by
// (start, span ID), struct fields in fixed order, attribute maps rendered
// in key order by encoding/json — to a bounded in-memory ring (served at
// GET /debug/traces) and optionally to a JSONL sink, so every process of
// a distributed trace exports its half.
package trace

import (
	"crypto/rand"
	"encoding/hex"
	"strings"
)

// TraceID is the 128-bit identifier shared by every span of one trace,
// across processes.
type TraceID [16]byte

// SpanID is the 64-bit identifier of one span within a trace.
type SpanID [8]byte

// String renders the ID as 32 lowercase hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// IsZero reports whether the ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the ID as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// IsZero reports whether the ID is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// SpanContext is the wire-visible identity of one span: the pair a
// traceparent header carries between processes.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
}

// IsZero reports whether either half of the context is missing.
func (sc SpanContext) IsZero() bool { return sc.TraceID.IsZero() || sc.SpanID.IsZero() }

// Header is the W3C Trace Context header name carrying a SpanContext
// between processes.
const Header = "traceparent"

// FormatTraceparent renders sc as a W3C traceparent value:
// 00-<32 hex trace-id>-<16 hex span-id>-01. The sampled flag is always
// set because every process exports every trace.
func FormatTraceparent(sc SpanContext) string {
	return "00-" + sc.TraceID.String() + "-" + sc.SpanID.String() + "-01"
}

// ParseTraceparent decodes a traceparent header value. It accepts any
// version except the invalid ff, ignores trailing future-version fields,
// and reports ok=false for malformed or all-zero IDs. It splits off at
// most five fields, the fifth holding whatever follows the flags, so a
// long header costs no more than a short one.
func ParseTraceparent(v string) (SpanContext, bool) {
	parts := strings.SplitN(strings.TrimSpace(v), "-", 5)
	if len(parts) < 4 {
		return SpanContext{}, false
	}
	if len(parts[0]) != 2 || strings.EqualFold(parts[0], "ff") {
		return SpanContext{}, false
	}
	if _, err := hex.DecodeString(parts[0]); err != nil {
		return SpanContext{}, false
	}
	var sc SpanContext
	if len(parts[1]) != 32 {
		return SpanContext{}, false
	}
	if _, err := hex.Decode(sc.TraceID[:], []byte(strings.ToLower(parts[1]))); err != nil {
		return SpanContext{}, false
	}
	if len(parts[2]) != 16 {
		return SpanContext{}, false
	}
	if _, err := hex.Decode(sc.SpanID[:], []byte(strings.ToLower(parts[2]))); err != nil {
		return SpanContext{}, false
	}
	if len(parts[3]) != 2 {
		return SpanContext{}, false
	}
	if _, err := hex.DecodeString(parts[3]); err != nil {
		return SpanContext{}, false
	}
	if sc.IsZero() {
		return SpanContext{}, false
	}
	return sc, true
}

// newTraceID draws a random, non-zero trace ID. Trace identity must be
// unpredictable and collision-free across processes, so this is one of
// the few sanctioned crypto/rand sites (the package is outside the
// determinism lint's scope; IDs never influence mining output).
func newTraceID() TraceID {
	var id TraceID
	for id.IsZero() {
		mustRand(id[:])
	}
	return id
}

// newSpanID draws a random, non-zero span ID.
func newSpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		mustRand(id[:])
	}
	return id
}

// mustRand fills b from crypto/rand. The reader is documented never to
// fail on supported platforms; if it does, the process has no entropy
// and no safe way to hand out identifiers, so fail loudly.
func mustRand(b []byte) {
	if _, err := rand.Read(b); err != nil {
		panic("trace: crypto/rand failed: " + err.Error())
	}
}
