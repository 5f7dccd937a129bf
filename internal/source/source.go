// Package source is WiClean's pluggable revision-history access layer.
//
// The paper's Optimization (b) (§4) builds the edits graph incrementally,
// pulling revision histories on demand and "only for the types of entities
// already appearing in frequent patterns". This package abstracts where
// those per-type histories come from — an in-memory store, a lazy JSONL
// dump on disk, or a remote MediaWiki-style HTTP endpoint — behind one
// interface, HistorySource, and wraps every implementation in a resilience
// middleware stack (per-attempt timeouts, capped exponential backoff with
// a retry budget, a bounded-concurrency semaphore, and a size-bounded LRU
// cache of type histories) so the miner survives slow and flaky backends.
//
// The Store adapter at the end of the stack implements mining.Store, which
// is how Algorithms 1–3 consume the layer without knowing its shape. A
// deterministic fault-injection source (Faults) exists for tests and for
// the resilience benchmark: with transient faults below the retry budget,
// mining output is byte-identical to a fault-free run.
package source

import (
	"context"
	"errors"
	"fmt"
	"math"

	"wiclean/internal/action"
	"wiclean/internal/dump"
	"wiclean/internal/taxonomy"
)

// HistorySource fetches the revision history of one entity type within a
// time window — the type-granular access path of the paper's on-demand
// graph construction (§4, Optimization (b)). FetchType returns every
// action whose source entity has a most specific type t' ≤ t and whose
// timestamp falls inside w, sorted by time. Implementations must be safe
// for concurrent use (detection workers and /suggest requests share one
// source) and callers must treat the returned slice as immutable: caching
// middleware may hand the same backing array to many windows.
type HistorySource interface {
	// Registry returns the entity registry the histories are typed
	// against (the entities(t) index of Definition 3.2).
	Registry() *taxonomy.Registry

	// FetchType pulls the revision histories of entities(t) restricted
	// to w. Errors are either transient (worth retrying) or wrapped with
	// Permanent; resilient stacks retry only the former.
	FetchType(ctx context.Context, t taxonomy.Type, w action.Window) ([]action.Action, error)
}

// AllTime is the window covering every representable timestamp. The LRU
// cache fetches whole type histories under this window and serves narrower
// requests by filtering, which is what lets Algorithm 2's refinement
// iterations (same types, doubled windows, §4.3) reuse earlier fetches.
var AllTime = action.Window{Start: math.MinInt64 / 4, End: math.MaxInt64 / 4}

// ErrExhausted marks a fetch that failed even after its full retry
// allowance; FetchError values returned by the retry middleware wrap it.
var ErrExhausted = errors.New("source: retry budget exhausted")

// FetchError is the typed error a resilient source surfaces when a fetch
// ultimately fails: it names the type and window being pulled and how many
// attempts were made, and wraps the last underlying error (plus
// ErrExhausted when the retry allowance ran out). The miner propagates it
// instead of returning a partially built edits graph.
type FetchError struct {
	Type     taxonomy.Type // the entity type being fetched
	Window   action.Window // the requested time window
	Attempts int           // total attempts made, including the first
	Err      error         // last underlying error, possibly joined with ErrExhausted
}

// Error renders the failure with its fetch coordinates.
func (e *FetchError) Error() string {
	return fmt.Sprintf("source: fetching type %q over %v failed after %d attempt(s): %v",
		e.Type, e.Window, e.Attempts, e.Err)
}

// Unwrap exposes the underlying error chain to errors.Is / errors.As.
func (e *FetchError) Unwrap() error { return e.Err }

// permanentError marks an error that retrying cannot fix (an unknown type,
// a 4xx HTTP status, a corrupt dump record).
type permanentError struct{ err error }

// Error renders the wrapped error.
func (e *permanentError) Error() string { return e.err.Error() }

// Unwrap exposes the wrapped error.
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err so that IsPermanent reports true: resilient stacks
// fail such fetches immediately instead of burning their retry budget.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err (or anything it wraps) was marked with
// Permanent. Context cancellation and deadline expiry of the parent
// context also count: the caller is gone, retrying serves nobody.
func IsPermanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}

// Memory is the in-memory HistorySource over a fully materialized
// dump.History — the pre-PR access path, now one source among three. It is
// the zero-latency baseline the resilience middleware is tested against.
type Memory struct {
	h *dump.History
}

// NewMemory returns a source over the given in-memory history.
func NewMemory(h *dump.History) *Memory { return &Memory{h: h} }

// Registry returns the entity registry of the underlying history.
func (s *Memory) Registry() *taxonomy.Registry { return s.h.Registry() }

// FetchType returns the actions of entities(t) inside w straight from
// memory. It honors ctx cancellation before doing any work, so a canceled
// mining run aborts between pulls.
func (s *Memory) FetchType(ctx context.Context, t taxonomy.Type, w action.Window) ([]action.Action, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	reg := s.h.Registry()
	if !reg.Taxonomy().Has(t) {
		return nil, Permanent(fmt.Errorf("source: unknown type %q", t))
	}
	return s.h.ActionsOf(reg.EntitiesOf(t), w), nil
}
