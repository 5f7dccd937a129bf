package source

import (
	"context"
	"flag"
	"fmt"

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

// Options is the CLI-facing configuration of a source: which backend to
// fetch from. wiclean and wiclean-server register the same flags via
// RegisterFlags and build the same Fetcher via Build, so
// "-source dump -source-path log.jsonl" means the same thing in both.
type Options struct {
	// Kind selects the backend: KindMemory, KindDump or KindHTTP.
	Kind string
	// Path is the actions.jsonl file for KindDump.
	Path string
	// URL is the /history endpoint for KindHTTP.
	URL string
	// Obs receives the Fetcher's metrics; nil is a no-op.
	Obs *obs.Registry
}

// DefaultOptions returns the in-memory backend.
func DefaultOptions() Options {
	return Options{Kind: KindMemory}
}

// RegisterFlags binds the shared -source* flags onto fs, writing into o.
func (o *Options) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&o.Kind, "source", o.Kind, "revision-history source: memory, dump, http")
	fs.StringVar(&o.Path, "source-path", o.Path, "actions.jsonl path for -source dump (defaults to <data>/actions.jsonl)")
	fs.StringVar(&o.URL, "source-url", o.URL, "history endpoint URL for -source http")
}

// Build returns the configured backend behind a Fetcher. mem is used for
// KindMemory and may be nil otherwise.
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
	return NewFetcher(src, o.Obs), nil
}

// Store builds the Fetcher and wraps it in the mining.Store adapter — the
// one-call path the CLIs use.
func (o Options) Store(ctx context.Context, mem *dump.History, reg *taxonomy.Registry) (*Store, error) {
	src, err := o.Build(mem, reg)
	if err != nil {
		return nil, err
	}
	return NewStore(ctx, src), nil
}
