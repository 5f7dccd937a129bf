package source

import (
	"container/list"
	"context"
	"sort"
	"sync"

	"wiclean/internal/action"
	"wiclean/internal/obs"
	"wiclean/internal/obs/trace"
	"wiclean/internal/taxonomy"
)

// Cache is a size-bounded LRU of per-type revision histories, shared
// across windows and refinement iterations. Algorithm 2 (§4.3)
// re-mines the same entity types at doubled window widths and reduced
// thresholds, and the relative stage (§4.2) walks the same types again —
// so the cache fetches each type's full history once (under AllTime) and
// serves every narrower window as a subslice of it, found by binary
// search in the time-sorted history and shared without copying, turning
// O(iterations × windows) backend pulls into O(distinct types). Capacity
// is measured in cached actions, not entry count, so one giant type
// cannot be hidden by many small ones. Concurrent misses for the same
// type are coalesced into a single underlying fetch. Errors are never
// cached.
type Cache struct {
	src HistorySource
	cap int
	obs *obs.Registry

	mu       sync.Mutex
	entries  map[taxonomy.Type]*list.Element
	lru      *list.List // front = most recently used
	size     int        // total cached actions
	inflight map[taxonomy.Type]*inflightFetch
	stats    CacheStats
}

// CacheStats is the cache's own accounting, mirrored one-for-one in the
// obs counters (the cache-correctness tests assert the two agree).
type CacheStats struct {
	Hits      int64 // served from a cached entry
	Misses    int64 // triggered an underlying fetch
	Coalesced int64 // waited on another caller's in-flight fetch
	Evictions int64 // entries dropped to respect capacity
}

// cacheEntry is one resident type history.
type cacheEntry struct {
	t       taxonomy.Type
	actions []action.Action
}

// inflightFetch lets concurrent misses for one type share a single
// underlying fetch.
type inflightFetch struct {
	done    chan struct{}
	actions []action.Action
	err     error
}

// NewCache wraps src in an LRU holding at most capActions cached actions
// (a type counts at least 1 even when its history is empty). A
// non-positive capacity still caches nothing-sized entries only, which
// effectively disables the cache; callers wanting no cache should just
// not wrap. The optional registry receives hit/miss/coalesced/eviction
// counters and size gauges.
func NewCache(src HistorySource, capActions int, reg *obs.Registry) *Cache {
	return &Cache{
		src:      src,
		cap:      capActions,
		obs:      reg,
		entries:  map[taxonomy.Type]*list.Element{},
		lru:      list.New(),
		inflight: map[taxonomy.Type]*inflightFetch{},
	}
}

// Registry returns the wrapped source's registry.
func (c *Cache) Registry() *taxonomy.Registry { return c.src.Registry() }

// Stats returns a snapshot of the cache's accounting.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// FetchType serves w from the cached full history of t, fetching (once)
// on miss. The returned slice shares the cached history's backing array,
// so, as HistorySource requires of every caller, it must be treated as
// immutable; its capacity ends at its length, so appending to it copies.
// A traced context gets a "source.cache" span whose result
// attribute — hit, coalesced or miss — says whether the backend was
// touched; on a miss, the underlying fetch's spans nest beneath it.
func (c *Cache) FetchType(ctx context.Context, t taxonomy.Type, w action.Window) ([]action.Action, error) {
	ctx, sp := trace.StartSpan(ctx, "source.cache")
	sp.SetAttr("type", string(t))
	defer sp.End()
	c.mu.Lock()
	if el, ok := c.entries[t]; ok {
		c.lru.MoveToFront(el)
		actions := el.Value.(*cacheEntry).actions
		c.stats.Hits++
		c.mu.Unlock()
		c.obs.Counter(obs.SourceCacheHits).Inc()
		sp.SetAttr("result", "hit")
		return window(actions, w), nil
	}
	if call, ok := c.inflight[t]; ok {
		c.stats.Coalesced++
		c.mu.Unlock()
		c.obs.Counter(obs.SourceCacheCoalesced).Inc()
		sp.SetAttr("result", "coalesced")
		select {
		case <-call.done:
		case <-ctx.Done():
			sp.Fail(ctx.Err())
			return nil, ctx.Err()
		}
		if call.err != nil {
			sp.Fail(call.err)
			return nil, call.err
		}
		return window(call.actions, w), nil
	}
	call := &inflightFetch{done: make(chan struct{})}
	c.inflight[t] = call
	c.stats.Misses++
	c.mu.Unlock()
	c.obs.Counter(obs.SourceCacheMisses).Inc()
	sp.SetAttr("result", "miss")

	call.actions, call.err = c.src.FetchType(ctx, t, AllTime)

	c.mu.Lock()
	delete(c.inflight, t)
	if call.err == nil {
		c.insertLocked(t, call.actions)
	}
	c.mu.Unlock()
	close(call.done)

	if call.err != nil {
		sp.Fail(call.err)
		return nil, call.err
	}
	return window(call.actions, w), nil
}

// insertLocked adds a fetched history and evicts least-recently-used
// entries until the capacity holds again. Histories larger than the whole
// capacity are served but not retained.
func (c *Cache) insertLocked(t taxonomy.Type, actions []action.Action) {
	cost := entryCost(actions)
	if cost > c.cap {
		return
	}
	if el, ok := c.entries[t]; ok { // lost a race variant: refresh in place
		c.size -= entryCost(el.Value.(*cacheEntry).actions)
		el.Value.(*cacheEntry).actions = actions
		c.size += cost
		c.lru.MoveToFront(el)
	} else {
		c.entries[t] = c.lru.PushFront(&cacheEntry{t: t, actions: actions})
		c.size += cost
	}
	for c.size > c.cap {
		back := c.lru.Back()
		if back == nil {
			break
		}
		ev := back.Value.(*cacheEntry)
		c.lru.Remove(back)
		delete(c.entries, ev.t)
		c.size -= entryCost(ev.actions)
		c.stats.Evictions++
		c.obs.Counter(obs.SourceCacheEvictions).Inc()
	}
	c.obs.Gauge(obs.SourceCacheActions).Set(float64(c.size))
	c.obs.Gauge(obs.SourceCacheTypes).Set(float64(len(c.entries)))
}

// entryCost prices a history at one unit per action, minimum one, so
// empty histories still occupy (and account for) a slot.
func entryCost(actions []action.Action) int {
	if len(actions) == 0 {
		return 1
	}
	return len(actions)
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
