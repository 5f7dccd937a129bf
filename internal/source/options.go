package source

import (
	"context"
	"flag"
	"fmt"
	"time"

	"wiclean/internal/dump"
	"wiclean/internal/obs"
	"wiclean/internal/taxonomy"
)

// Source kinds selectable from the CLIs' -source flag.
const (
	// KindMemory serves from the fully materialized in-memory history —
	// the default, matching the pre-source-layer behavior.
	KindMemory = "memory"
	// KindDump streams a JSONL action log lazily from disk, fetching
	// only requested types.
	KindDump = "dump"
	// KindHTTP fetches from a remote /history endpoint (for example
	// another wiclean-server).
	KindHTTP = "http"
)

// Options is the CLI-facing configuration of a source stack: which
// backend to fetch from and how much resilience to wrap around it. The
// three binaries register the same flags via RegisterFlags and build the
// same stack via Build, so "-source dump -source-timeout 5s" means the
// same thing everywhere.
type Options struct {
	// Kind selects the backend: KindMemory, KindDump or KindHTTP.
	Kind string
	// Path is the actions.jsonl file for KindDump.
	Path string
	// URL is the /history endpoint for KindHTTP.
	URL string
	// Timeout bounds each fetch attempt (0 disables).
	Timeout time.Duration
	// Retries is how many times a failed fetch is retried (attempts - 1).
	Retries int
	// RetryBase is the initial backoff delay.
	RetryBase time.Duration
	// Concurrency bounds simultaneous fetches (0 disables the semaphore).
	Concurrency int
	// CacheActions is the LRU capacity in cached actions (0 disables
	// the cache).
	CacheActions int
	// Faults, when non-nil, injects deterministic faults under the
	// resilience stack — the tests' hook; no flag sets it.
	Faults *Faults
	// Obs receives the stack's metrics; nil is a no-op.
	Obs *obs.Registry
}

// DefaultOptions returns the standard stack: in-memory backend, 10 s
// per-attempt timeout, 3 retries from a 50 ms base delay, 8-way fetch
// concurrency, and a 1M-action cache.
func DefaultOptions() Options {
	return Options{
		Kind:         KindMemory,
		Timeout:      10 * time.Second,
		Retries:      3,
		RetryBase:    50 * time.Millisecond,
		Concurrency:  8,
		CacheActions: 1 << 20,
	}
}

// RegisterFlags binds the shared -source* flags onto fs, writing into o.
func (o *Options) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&o.Kind, "source", o.Kind, "revision-history source: memory, dump, http")
	fs.StringVar(&o.Path, "source-path", o.Path, "actions.jsonl path for -source dump (defaults to <data>/actions.jsonl)")
	fs.StringVar(&o.URL, "source-url", o.URL, "history endpoint URL for -source http")
	fs.DurationVar(&o.Timeout, "source-timeout", o.Timeout, "per-attempt fetch timeout (0 = none)")
	fs.IntVar(&o.Retries, "source-retries", o.Retries, "retries per failed fetch")
	fs.DurationVar(&o.RetryBase, "source-retry-base", o.RetryBase, "initial retry backoff delay")
	fs.IntVar(&o.Concurrency, "source-concurrency", o.Concurrency, "max concurrent fetches (0 = unlimited)")
	fs.IntVar(&o.CacheActions, "source-cache", o.CacheActions, "type-history LRU capacity in actions (0 = no cache)")
}

// Build assembles the configured stack: base source (mem is used for
// KindMemory and may be nil otherwise), then faults (if configured),
// per-attempt timeout, retry with backoff, the concurrency semaphore,
// fetch metrics, and the shared LRU cache outermost.
func (o Options) Build(mem *dump.History, reg *taxonomy.Registry) (HistorySource, error) {
	var src HistorySource
	switch o.Kind {
	case KindMemory, "":
		if mem == nil {
			return nil, fmt.Errorf("source: kind %q needs an in-memory history", KindMemory)
		}
		src = NewMemory(mem)
	case KindDump:
		if o.Path == "" {
			return nil, fmt.Errorf("source: kind %q needs -source-path", KindDump)
		}
		src = NewDumpFile(o.Path, reg)
	case KindHTTP:
		if o.URL == "" {
			return nil, fmt.Errorf("source: kind %q needs -source-url", KindHTTP)
		}
		src = NewHTTP(o.URL, reg, nil)
	default:
		return nil, fmt.Errorf("source: unknown kind %q (want %s, %s or %s)", o.Kind, KindMemory, KindDump, KindHTTP)
	}
	if o.Faults != nil {
		src = WithFaults(src, *o.Faults, o.Obs)
	}
	src = WithTimeout(src, o.Timeout)
	policy := DefaultRetryPolicy()
	policy.MaxAttempts = o.Retries + 1
	if o.RetryBase > 0 {
		policy.BaseDelay = o.RetryBase
	}
	policy.Obs = o.Obs
	src = WithRetry(src, policy)
	src = WithLimit(src, o.Concurrency, o.Obs)
	src = WithObs(src, o.Obs)
	if o.CacheActions > 0 {
		src = NewCache(src, o.CacheActions, o.Obs)
	}
	return src, nil
}

// Store builds the stack and wraps it in the mining.Store adapter — the
// one-call path the CLIs use.
func (o Options) Store(ctx context.Context, mem *dump.History, reg *taxonomy.Registry) (*Store, error) {
	src, err := o.Build(mem, reg)
	if err != nil {
		return nil, err
	}
	return NewStore(ctx, src), nil
}
