package source

import (
	"container/list"
	"context"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"wiclean/internal/action"
	"wiclean/internal/obs"
	"wiclean/internal/obs/trace"
	"wiclean/internal/taxonomy"
)

// The fetch path's fixed values. A miss holds one of fetchSlots slots
// across up to fetchAttempts attempts, each under its own attemptTimeout;
// retry k waits backoffBase·2^(k−1), capped at backoffCap and spread by
// ±backoffJitter. The LRU holds at most cacheActions actions.
const (
	fetchAttempts  = 4
	fetchSlots     = 8
	attemptTimeout = 10 * time.Second
	backoffBase    = 50 * time.Millisecond
	backoffCap     = 2 * time.Second
	backoffJitter  = 0.2
	cacheActions   = 1 << 20
)

// limits carries the values a Fetcher takes from the constants above.
// NewFetcher always uses fetchLimits; this package's tests build a
// Fetcher with their own through newFetcher.
type limits struct {
	attempts     int           // attempts per fetch, the first included
	slots        int           // concurrent backend fetches
	timeout      time.Duration // deadline of one attempt
	base         time.Duration // wait before the first retry
	cacheActions int           // LRU capacity in actions
}

var fetchLimits = limits{
	attempts:     fetchAttempts,
	slots:        fetchSlots,
	timeout:      attemptTimeout,
	base:         backoffBase,
	cacheActions: cacheActions,
}

// Fetcher is the one path from the miner to a backend: a size-bounded
// LRU of per-type revision histories in front of a bounded, retrying
// fetch. Algorithm 2 (§4.3) mines the same entity types again at every
// doubled window width, and the relative stage (§4.2) walks them again,
// so the Fetcher pulls each type's full history once (under AllTime) and
// serves every narrower window as a subslice of it, found by binary
// search in the time-sorted history and shared without copying. Capacity
// is counted in cached actions, so one giant type cannot hide behind many
// small ones.
//
// A miss is one logical fetch. It holds one of a fixed number of slots
// across all its attempts, gives each attempt its own deadline, waits a
// deterministic capped backoff between attempts, fails fast on a
// Permanent error, and stores the history on success. Concurrent misses
// for one type share one fetch, and errors are never cached.
type Fetcher struct {
	src   HistorySource
	obs   *obs.Registry
	lim   limits
	slots chan struct{}

	mu       sync.Mutex
	entries  map[taxonomy.Type]*list.Element
	lru      *list.List // front = most recently used
	size     int        // total cached actions
	inflight map[taxonomy.Type]*inflightFetch
}

// cacheEntry is one resident type history.
type cacheEntry struct {
	t       taxonomy.Type
	actions []action.Action
}

// inflightFetch lets concurrent misses for one type share a single
// backend fetch.
type inflightFetch struct {
	done    chan struct{}
	actions []action.Action
	err     error
}

// NewFetcher wraps a backend in the fetch path. The optional registry
// receives the cache, fetch, retry and in-flight series.
func NewFetcher(src HistorySource, reg *obs.Registry) *Fetcher {
	return newFetcher(src, reg, fetchLimits)
}

func newFetcher(src HistorySource, reg *obs.Registry, lim limits) *Fetcher {
	return &Fetcher{
		src:      src,
		obs:      reg,
		lim:      lim,
		slots:    make(chan struct{}, lim.slots),
		entries:  map[taxonomy.Type]*list.Element{},
		lru:      list.New(),
		inflight: map[taxonomy.Type]*inflightFetch{},
	}
}

// Registry returns the backend's registry.
func (f *Fetcher) Registry() *taxonomy.Registry { return f.src.Registry() }

// FetchType serves w from the cached full history of t, fetching it
// (once) on a miss. The returned slice shares the cached history's
// backing array, so, as HistorySource requires of every caller, it must
// be treated as immutable; its capacity ends at its length, so appending
// to it copies. A traced context gets a "source.cache" span whose result
// attribute — hit, coalesced or miss — says whether the backend was
// touched; a miss's "source.fetch" span nests beneath it.
func (f *Fetcher) FetchType(ctx context.Context, t taxonomy.Type, w action.Window) ([]action.Action, error) {
	ctx, sp := trace.StartSpan(ctx, "source.cache")
	sp.SetAttr("type", string(t))
	defer sp.End()
	f.mu.Lock()
	if el, ok := f.entries[t]; ok {
		f.lru.MoveToFront(el)
		actions := el.Value.(*cacheEntry).actions
		f.mu.Unlock()
		f.obs.Counter(obs.SourceCacheHits).Inc()
		sp.SetAttr("result", "hit")
		return window(actions, w), nil
	}
	call, joined := f.inflight[t]
	if !joined {
		call = &inflightFetch{done: make(chan struct{})}
		f.inflight[t] = call
	}
	f.mu.Unlock()

	if joined {
		f.obs.Counter(obs.SourceCacheCoalesced).Inc()
		sp.SetAttr("result", "coalesced")
		select {
		case <-call.done:
		case <-ctx.Done():
			sp.Fail(ctx.Err())
			return nil, ctx.Err()
		}
	} else {
		f.obs.Counter(obs.SourceCacheMisses).Inc()
		sp.SetAttr("result", "miss")
		call.actions, call.err = f.miss(ctx, t)
		f.mu.Lock()
		delete(f.inflight, t)
		if call.err == nil {
			f.insertLocked(t, call.actions)
		}
		f.mu.Unlock()
		close(call.done)
	}
	if call.err != nil {
		sp.Fail(call.err)
		return nil, call.err
	}
	return window(call.actions, w), nil
}

// miss counts and times one logical fetch of t's full history: its wait
// for a slot, every attempt and every backoff. The latency observation
// carries the trace ID as its bucket's exemplar, so a fetch-latency tail
// on /metrics points at one concrete trace.
func (f *Fetcher) miss(ctx context.Context, t taxonomy.Type) ([]action.Action, error) {
	f.obs.Counter(obs.SourceFetches).Inc()
	start := time.Now()
	out, err := f.fetch(ctx, t)
	f.obs.Histogram(obs.SourceFetchSeconds, obs.DurationBuckets).
		ObserveDurationWithExemplar(time.Since(start), trace.FromContext(ctx).TraceIDString())
	if err != nil {
		f.obs.Counter(obs.SourceFetchErrors).Inc()
	}
	return out, err
}

// fetch takes a slot (or gives up when ctx does) and holds it across the
// attempts. A fetch that still fails — permanently (IsPermanent), after
// its context is done, or after its last attempt — surfaces as a
// *FetchError naming the type, window and attempt count; one that used
// every attempt also wraps ErrExhausted. A success after transient
// failures returns exactly the backend's result, which is what makes
// fault-injected mining byte-identical to a fault-free run. Every
// attempt and every wait runs under one "source.fetch" span, whose
// attempts and retries attributes say where a slow mine waited.
func (f *Fetcher) fetch(ctx context.Context, t taxonomy.Type) ([]action.Action, error) {
	select {
	case f.slots <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	g := f.obs.Gauge(obs.SourceInflight)
	g.Add(1)
	defer func() {
		g.Add(-1)
		<-f.slots
	}()

	ctx, sp := trace.StartSpan(ctx, "source.fetch")
	sp.SetAttr("type", string(t))
	defer sp.End()
	var last error
	attempts := 0
	for attempts < f.lim.attempts {
		if attempts > 0 {
			f.obs.Counter(obs.SourceRetries).Inc()
			if err := sleepCtx(ctx, f.lim.backoff(string(t), attempts)); err != nil {
				last = err
				break
			}
		}
		out, err := f.attempt(ctx, t)
		attempts++
		if err == nil {
			sp.SetAttrInt("attempts", int64(attempts))
			sp.SetAttrInt("retries", int64(attempts-1))
			return out, nil
		}
		last = err
		if IsPermanent(err) || ctx.Err() != nil {
			break
		}
	}
	f.obs.Counter(obs.SourceGiveUps).Inc()
	err := last
	if attempts >= f.lim.attempts && !IsPermanent(last) {
		err = &exhaustedError{last: last}
	}
	ferr := &FetchError{Type: t, Window: AllTime, Attempts: attempts, Err: err}
	sp.SetAttrInt("attempts", int64(attempts))
	sp.Fail(ferr)
	return nil, ferr
}

// attempt runs one backend fetch of t's full history under its own
// deadline: a hung backend costs one attempt, not the whole fetch.
func (f *Fetcher) attempt(ctx context.Context, t taxonomy.Type) ([]action.Action, error) {
	ctx, cancel := context.WithTimeout(ctx, f.lim.timeout)
	defer cancel()
	return f.src.FetchType(ctx, t, AllTime)
}

// exhaustedError carries the last attempt's error while also matching
// ErrExhausted, so both survive errors.Is checks.
type exhaustedError struct{ last error }

// Error renders the exhaustion with its cause.
func (e *exhaustedError) Error() string { return ErrExhausted.Error() + ": " + e.last.Error() }

// Unwrap exposes both the sentinel and the cause.
func (e *exhaustedError) Unwrap() []error { return []error{ErrExhausted, e.last} }

// backoff returns the wait before retry k (k >= 1) of the fetch keyed by
// key: base·2^(k−1) capped at backoffCap, spread by ±backoffJitter
// derived deterministically from (key, k), so runs are reproducible.
func (l limits) backoff(key string, k int) time.Duration {
	d := l.base
	for i := 1; i < k && d < backoffCap; i++ {
		d *= 2
	}
	d = min(d, backoffCap)
	return time.Duration(float64(d) * (1 + backoffJitter*(2*uniform(0, key, k)-1)))
}

// sleepCtx waits d or until ctx is done, whichever comes first. A
// non-positive d returns at once with ctx's error, if any.
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

// uniform maps (seed, key, n) to a deterministic uniform value in
// [0, 1): FNV-1a of key, mixed with seed and n by the splitmix64
// finalizer. The backoff jitter and the fault model both draw from it.
func uniform(seed uint64, key string, n int) float64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	x := seed ^ h.Sum64() ^ (uint64(n) * 0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// insertLocked adds a fetched history and evicts least-recently-used
// entries until the capacity holds again. Histories larger than the whole
// capacity are served but not retained.
func (f *Fetcher) insertLocked(t taxonomy.Type, actions []action.Action) {
	cost := entryCost(actions)
	if cost > f.lim.cacheActions {
		return
	}
	f.entries[t] = f.lru.PushFront(&cacheEntry{t: t, actions: actions})
	f.size += cost
	for f.size > f.lim.cacheActions {
		back := f.lru.Back()
		ev := back.Value.(*cacheEntry)
		f.lru.Remove(back)
		delete(f.entries, ev.t)
		f.size -= entryCost(ev.actions)
		f.obs.Counter(obs.SourceCacheEvictions).Inc()
	}
	f.obs.Gauge(obs.SourceCacheActions).Set(float64(f.size))
	f.obs.Gauge(obs.SourceCacheTypes).Set(float64(len(f.entries)))
}

// entryCost prices a history at one unit per action, minimum one, so
// empty histories still occupy (and account for) a slot.
func entryCost(actions []action.Action) int {
	return max(len(actions), 1)
}

// window returns the actions of the time-sorted history as that fall
// inside w, without copying: binary search finds both ends, and the
// capacity is capped at the length so that an append by the caller
// cannot write into the cached array.
func window(as []action.Action, w action.Window) []action.Action {
	lo := sort.Search(len(as), func(i int) bool { return as[i].T >= w.Start })
	hi := lo + sort.Search(len(as)-lo, func(i int) bool { return as[lo+i].T >= w.End })
	return as[lo:hi:hi]
}
