package source

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"wiclean/internal/action"
	"wiclean/internal/obs"
	"wiclean/internal/taxonomy"
)

// ErrInjected marks failures produced by the fault-injection source;
// tests match it with errors.Is.
var ErrInjected = errors.New("source: injected fault")

// Faults configures deterministic fault injection. Every decision is a
// pure function of (Seed, type, per-type attempt number), so a given
// configuration fails the exact same fetch attempts on every run — which
// is what lets the test suite assert that mining output with transient
// faults is byte-identical to the fault-free run (retries mask the
// faults) without flakiness.
type Faults struct {
	// Seed drives the pseudo-random failure decisions.
	Seed uint64

	// Rate is the probability in [0, 1] that any given fetch attempt
	// fails with a transient ErrInjected.
	Rate float64

	// FailFirst scripts a deterministic outage: the first N fetch
	// attempts of every type fail before Rate is even consulted — the
	// "fail N then succeed" shape that exercises backoff precisely.
	FailFirst int

	// Latency delays every attempt (before any failure), honoring ctx —
	// the slow-backend half of the fault model, which the per-attempt
	// deadline is tested against.
	Latency time.Duration

	// Permanent marks injected errors with Permanent so retries skip
	// them — for testing the fail-fast path.
	Permanent bool
}

// FaultSource wraps a HistorySource with the Faults fault model. It is
// test infrastructure: a test places it under a Fetcher, where every
// attempt reaches it, and no flag sets it.
type FaultSource struct {
	src HistorySource
	f   Faults
	obs *obs.Registry

	mu       sync.Mutex
	attempts map[taxonomy.Type]int
}

// WithFaults wraps src in the fault model. The optional registry counts
// injected faults.
func WithFaults(src HistorySource, f Faults, reg *obs.Registry) *FaultSource {
	return &FaultSource{src: src, f: f, obs: reg, attempts: map[taxonomy.Type]int{}}
}

// Registry returns the wrapped source's registry.
func (s *FaultSource) Registry() *taxonomy.Registry { return s.src.Registry() }

// FetchType applies latency, then the scripted and probabilistic failure
// decisions, then delegates.
func (s *FaultSource) FetchType(ctx context.Context, t taxonomy.Type, w action.Window) ([]action.Action, error) {
	s.mu.Lock()
	s.attempts[t]++
	n := s.attempts[t]
	s.mu.Unlock()

	if s.f.Latency > 0 {
		if err := sleepCtx(ctx, s.f.Latency); err != nil {
			return nil, err
		}
	}
	if s.f.roll(string(t), n) {
		s.obs.Counter(obs.SourceFaultsInjected).Inc()
		err := fmt.Errorf("%w: type %q attempt %d", ErrInjected, t, n)
		if s.f.Permanent {
			err = Permanent(err)
		}
		return nil, err
	}
	return s.src.FetchType(ctx, t, w)
}

// roll reports whether attempt n (1-based) of the operation identified by
// key fails under the fault model — FailFirst scripted failures first, then
// the Rate-probability decision derived deterministically from (Seed, key,
// n). FaultSource makes exactly this decision per type fetch.
func (f Faults) roll(key string, n int) bool {
	if n <= f.FailFirst {
		return true
	}
	return f.Rate > 0 && uniform(f.Seed, key, n) < f.Rate
}
