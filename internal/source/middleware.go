// Resilience middleware for HistorySource stacks. Each wrapper is a
// HistorySource itself, so they compose in any order; Options.Build wires
// the canonical stack Cache → Obs → Limit → Retry → Timeout → base, which
// is what the production-scale deployments of the ROADMAP need to survive
// slow and flaky revision-history backends (§4's on-demand pulls become
// network calls there).

package source

import (
	"context"
	"hash/fnv"
	"sync/atomic"
	"time"

	"wiclean/internal/action"
	"wiclean/internal/obs"
	"wiclean/internal/obs/trace"
	"wiclean/internal/taxonomy"
)

// WithTimeout bounds every FetchType call to d. When composed inside
// WithRetry, each attempt gets a fresh deadline — a hung backend costs one
// attempt, not the whole fetch. A non-positive d returns src unchanged.
func WithTimeout(src HistorySource, d time.Duration) HistorySource {
	if d <= 0 {
		return src
	}
	return &timeoutSource{src: src, d: d}
}

type timeoutSource struct {
	src HistorySource
	d   time.Duration
}

// Registry returns the wrapped source's registry.
func (s *timeoutSource) Registry() *taxonomy.Registry { return s.src.Registry() }

// FetchType delegates with a per-call deadline.
func (s *timeoutSource) FetchType(ctx context.Context, t taxonomy.Type, w action.Window) ([]action.Action, error) {
	ctx, cancel := context.WithTimeout(ctx, s.d)
	defer cancel()
	return s.src.FetchType(ctx, t, w)
}

// WithLimit bounds the number of concurrent fetches to n with a semaphore.
// Detection workers and concurrent /suggest requests each pull types on
// demand; the semaphore keeps that fan-out from overwhelming a dump file
// or a remote endpoint. Waiting honors ctx. A non-positive n
// returns src unchanged. The optional registry tracks in-flight fetches.
func WithLimit(src HistorySource, n int, reg *obs.Registry) HistorySource {
	if n <= 0 {
		return src
	}
	return &limitSource{src: src, sem: make(chan struct{}, n), obs: reg}
}

type limitSource struct {
	src HistorySource
	sem chan struct{}
	obs *obs.Registry
}

// Registry returns the wrapped source's registry.
func (s *limitSource) Registry() *taxonomy.Registry { return s.src.Registry() }

// FetchType acquires a semaphore slot (or gives up when ctx does) and
// delegates.
func (s *limitSource) FetchType(ctx context.Context, t taxonomy.Type, w action.Window) ([]action.Action, error) {
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	g := s.obs.Gauge(obs.SourceInflight)
	g.Add(1)
	defer func() {
		g.Add(-1)
		<-s.sem
	}()
	return s.src.FetchType(ctx, t, w)
}

// RetryPolicy configures WithRetry: capped exponential backoff with
// deterministic jitter and an optional global retry budget. The zero
// value is not useful; start from DefaultRetryPolicy.
type RetryPolicy struct {
	// MaxAttempts is the per-fetch attempt allowance including the first
	// try (<=0 means DefaultRetryPolicy's value).
	MaxAttempts int

	// BaseDelay is the backoff before the first retry; attempt k waits
	// BaseDelay·2^(k-1), capped at MaxDelay.
	BaseDelay time.Duration

	// MaxDelay caps the exponential growth (<=0 means no cap).
	MaxDelay time.Duration

	// Jitter spreads each delay by ±Jitter fraction, derived
	// deterministically from the (type, attempt) pair so runs are
	// reproducible; 0 disables jitter.
	Jitter float64

	// Budget, when positive, bounds the total number of retries across
	// every fetch of the wrapped source: once spent, failing fetches give
	// up immediately. This is the circuit-breaking knob — a dying backend
	// fails the run fast instead of multiplying per-fetch backoff across
	// thousands of type pulls.
	Budget int64

	// Obs receives retry and give-up counters; nil is a no-op.
	Obs *obs.Registry

	// Sleep replaces the backoff wait in tests; nil uses a real timer
	// that aborts when ctx does.
	Sleep func(ctx context.Context, d time.Duration) error
}

// DefaultRetryPolicy returns the stack's standard policy: 4 attempts,
// 50 ms base delay doubling to a 2 s cap, ±20% jitter, unlimited budget.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   50 * time.Millisecond,
		MaxDelay:    2 * time.Second,
		Jitter:      0.2,
	}
}

// WithRetry wraps src so transient fetch failures are retried under p.
// Fetches that still fail — or that fail permanently (IsPermanent), or
// whose context is done — surface as a *FetchError naming the type,
// window and attempt count; budget- and allowance-exhausted errors also
// wrap ErrExhausted. Success after masking transient faults returns
// exactly the underlying result, which is what makes fault-injected
// mining byte-identical to a fault-free run.
func WithRetry(src HistorySource, p RetryPolicy) HistorySource {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = DefaultRetryPolicy().MaxAttempts
	}
	if p.Sleep == nil {
		p.Sleep = sleepCtx
	}
	return &retrySource{src: src, p: p}
}

type retrySource struct {
	src  HistorySource
	p    RetryPolicy
	used atomic.Int64 // retries consumed from the global budget
}

// Registry returns the wrapped source's registry.
func (s *retrySource) Registry() *taxonomy.Registry { return s.src.Registry() }

// FetchType runs the retry loop of the policy. The whole loop — every
// attempt and every backoff wait — runs under one "source.fetch" trace
// span (when ctx carries a trace), whose attempts/retries attributes and
// error status answer "where did this slow mine wait" per fetch.
func (s *retrySource) FetchType(ctx context.Context, t taxonomy.Type, w action.Window) ([]action.Action, error) {
	ctx, sp := trace.StartSpan(ctx, "source.fetch")
	sp.SetAttr("type", string(t))
	var last error
	attempts := 0
	exhausted := false
	for attempts < s.p.MaxAttempts {
		if attempts > 0 {
			if s.p.Budget > 0 && s.used.Add(1) > s.p.Budget {
				exhausted = true
				break
			}
			s.p.Obs.Counter(obs.SourceRetries).Inc()
			if err := s.p.Sleep(ctx, s.p.backoff(string(t), attempts)); err != nil {
				last = err
				break
			}
		}
		out, err := s.src.FetchType(ctx, t, w)
		attempts++
		if err == nil {
			sp.SetAttrInt("attempts", int64(attempts))
			sp.SetAttrInt("retries", int64(attempts-1))
			sp.End()
			return out, nil
		}
		last = err
		if IsPermanent(err) || ctx.Err() != nil {
			break
		}
	}
	s.p.Obs.Counter(obs.SourceGiveUps).Inc()
	err := last
	if exhausted || (attempts >= s.p.MaxAttempts && !IsPermanent(last)) {
		err = joinExhausted(last)
	}
	ferr := &FetchError{Type: t, Window: w, Attempts: attempts, Err: err}
	sp.SetAttrInt("attempts", int64(attempts))
	sp.Fail(ferr)
	sp.End()
	return nil, ferr
}

// joinExhausted pairs the last underlying error with ErrExhausted so both
// survive errors.Is checks.
func joinExhausted(last error) error {
	if last == nil {
		return ErrExhausted
	}
	return &exhaustedError{last: last}
}

// exhaustedError carries the last attempt's error while also matching
// ErrExhausted.
type exhaustedError struct{ last error }

// Error renders the exhaustion with its cause.
func (e *exhaustedError) Error() string { return ErrExhausted.Error() + ": " + e.last.Error() }

// Unwrap exposes both the sentinel and the cause.
func (e *exhaustedError) Unwrap() []error { return []error{ErrExhausted, e.last} }

// backoff returns the policy's delay before retry number k (k >= 1) of the
// operation identified by key: BaseDelay·2^(k−1) capped at MaxDelay, spread
// by the deterministic ±Jitter derived from (key, k). The retry middleware
// keys it by type name.
func (p RetryPolicy) backoff(key string, k int) time.Duration {
	d := p.BaseDelay
	if d <= 0 {
		return 0
	}
	for i := 1; i < k; i++ {
		d *= 2
		if p.MaxDelay > 0 && d >= p.MaxDelay {
			d = p.MaxDelay
			break
		}
	}
	if p.MaxDelay > 0 && d > p.MaxDelay {
		d = p.MaxDelay
	}
	if p.Jitter > 0 {
		u := hashFraction(key, uint64(k)) // deterministic in (key, attempt)
		d = time.Duration(float64(d) * (1 + p.Jitter*(2*u-1)))
	}
	return d
}

// SleepContext waits d or until ctx is done, whichever comes first — the
// wait primitive behind every backoff in the stack, exported for retrying
// clients outside this package. It honors RetryPolicy.Sleep semantics: a
// non-positive d returns immediately with ctx's error, if any.
func SleepContext(ctx context.Context, d time.Duration) error { return sleepCtx(ctx, d) }

// sleepCtx waits d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// hashFraction maps (s, n) to a deterministic uniform value in [0, 1).
func hashFraction(s string, n uint64) float64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	x := h.Sum64() ^ (n * 0x9e3779b97f4a7c15)
	// splitmix64 finalizer for good bit diffusion.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// WithObs instruments src: a counter and latency histogram per logical
// fetch and an error counter per failed one. Placed between the cache and
// the retry middleware, the histogram measures what a cache miss really
// costs (queueing, every retry, backoff) — the fetch-latency series the
// resilience benchmark reports percentiles of.
func WithObs(src HistorySource, reg *obs.Registry) HistorySource {
	if reg == nil {
		return src
	}
	return &obsSource{src: src, reg: reg}
}

type obsSource struct {
	src HistorySource
	reg *obs.Registry
}

// Registry returns the wrapped source's registry.
func (s *obsSource) Registry() *taxonomy.Registry { return s.src.Registry() }

// FetchType counts and times the delegated fetch. The latency
// observation carries the current trace ID (if any) as its bucket's
// exemplar, so a fetch-latency tail on /metrics points at one concrete
// trace.
func (s *obsSource) FetchType(ctx context.Context, t taxonomy.Type, w action.Window) ([]action.Action, error) {
	s.reg.Counter(obs.SourceFetches).Inc()
	start := time.Now()
	out, err := s.src.FetchType(ctx, t, w)
	s.reg.Histogram(obs.SourceFetchSeconds, obs.DurationBuckets).
		ObserveDurationWithExemplar(time.Since(start), trace.FromContext(ctx).TraceIDString())
	if err != nil {
		s.reg.Counter(obs.SourceFetchErrors).Inc()
	}
	return out, err
}
