package source

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"wiclean/internal/action"
	"wiclean/internal/obs"
	"wiclean/internal/taxonomy"
)

// countingSource wraps a source and counts backend fetches per type.
type countingSource struct {
	src HistorySource

	mu    sync.Mutex
	calls map[taxonomy.Type]int
}

func newCounting(src HistorySource) *countingSource {
	return &countingSource{src: src, calls: map[taxonomy.Type]int{}}
}

func (s *countingSource) Registry() *taxonomy.Registry { return s.src.Registry() }

func (s *countingSource) FetchType(ctx context.Context, t taxonomy.Type, w action.Window) ([]action.Action, error) {
	s.mu.Lock()
	s.calls[t]++
	s.mu.Unlock()
	return s.src.FetchType(ctx, t, w)
}

func (s *countingSource) count(t taxonomy.Type) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls[t]
}

// cacheCounts reads the cache's obs counters.
type cacheCounts struct{ Hits, Misses, Coalesced, Evictions int64 }

func cacheStats(reg *obs.Registry) cacheCounts {
	snap := reg.Snapshot()
	return cacheCounts{
		Hits:      snap.Counters[obs.SourceCacheHits],
		Misses:    snap.Counters[obs.SourceCacheMisses],
		Coalesced: snap.Counters[obs.SourceCacheCoalesced],
		Evictions: snap.Counters[obs.SourceCacheEvictions],
	}
}

// withCapacity returns the fetch path's limits with an LRU of capActions
// actions.
func withCapacity(capActions int) limits {
	lim := fetchLimits
	lim.cacheActions = capActions
	return lim
}

func TestCacheHitsAcrossWindows(t *testing.T) {
	w := newTestWorld(t)
	backend := newCounting(NewMemory(w.hist))
	reg := obs.NewRegistry()
	c := NewFetcher(backend, reg)
	ctx := context.Background()

	first, err := c.FetchType(ctx, "FootballPlayer", action.Window{Start: 0, End: 100})
	if err != nil {
		t.Fatal(err)
	}
	// A different (wider) window must be served from the same cached full
	// history — this is what makes Algorithm 2's window doubling cheap.
	second, err := c.FetchType(ctx, "FootballPlayer", w.span)
	if err != nil {
		t.Fatal(err)
	}
	if got := backend.count("FootballPlayer"); got != 1 {
		t.Fatalf("backend fetched %d times, want 1", got)
	}
	if len(second) < len(first) {
		t.Fatalf("wider window returned fewer actions (%d < %d)", len(second), len(first))
	}
	st := cacheStats(reg)
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

// TestCacheWindowFilterAndImmutability checks that a narrow window holds
// only in-window actions and that the cached history stays intact when a
// caller appends to a result: the results share the cached array (callers
// must not write their elements), but their capacity ends at their
// length, so an append copies.
func TestCacheWindowFilterAndImmutability(t *testing.T) {
	w := newTestWorld(t)
	c := NewFetcher(NewMemory(w.hist), nil)
	ctx := context.Background()

	full, err := c.FetchType(ctx, "FootballPlayer", w.span)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]action.Action(nil), full...)
	narrow := action.Window{Start: 10, End: 14}
	got, err := c.FetchType(ctx, "FootballPlayer", narrow)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || len(got) == len(full) {
		t.Fatalf("narrow window holds %d of %d actions, want a proper nonempty part", len(got), len(full))
	}
	for _, a := range got {
		if !narrow.Contains(a.T) {
			t.Fatalf("action at %d outside requested window %v", a.T, narrow)
		}
	}
	// Append to the result; a later fetch must not see it.
	_ = append(got, action.Action{Op: action.Add, T: -999})
	again, err := c.FetchType(ctx, "FootballPlayer", w.span)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Fatalf("appending to a result changed the cached history:\n got %v\nwant %v", again, want)
	}
}

// TestCacheWindowBoundaries checks the cache's windows against a linear
// filter over a history with repeated timestamps: Start is inclusive, End
// exclusive, empty and inverted windows hold nothing, AllTime holds
// everything. The same windows are served on the miss that fills the
// cache and on the hits after it, and appending to any result leaves
// every later one unchanged.
func TestCacheWindowBoundaries(t *testing.T) {
	w := newTestWorld(t)
	var hist []action.Action
	for i, ts := range []action.Time{-5, 0, 0, 3, 3, 3, 7, 10, 10} {
		hist = append(hist, action.Action{Op: action.Add, Edge: action.Edge{Src: w.players[0], Label: "l", Dst: taxonomy.EntityID(i)}, T: ts})
	}
	windows := []action.Window{
		AllTime, {Start: 0, End: 3}, {Start: 3, End: 4}, {Start: 3, End: 7}, {Start: 3, End: 8},
		{Start: -5, End: -4}, {Start: -100, End: -5}, {Start: 10, End: 11}, {Start: 11, End: 20},
		{Start: -100, End: 100}, {Start: 3, End: 3}, {Start: 0, End: 0}, {Start: 7, End: 3}, {Start: 1, End: 2},
	}
	src := &stubSource{reg: w.reg, fetch: func(context.Context, taxonomy.Type, action.Window) ([]action.Action, error) {
		return append([]action.Action(nil), hist...), nil
	}}
	ctx := context.Background()
	check := func(c *Fetcher, win action.Window) {
		t.Helper()
		got, err := c.FetchType(ctx, "FootballPlayer", win)
		if err != nil {
			t.Fatal(err)
		}
		want := action.Filter(hist, win)
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("window %v: got %v, want %v", win, got, want)
		}
		_ = append(got, action.Action{Op: action.Remove, T: -999})
		all, err := c.FetchType(ctx, "FootballPlayer", AllTime)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(all, hist) {
			t.Fatalf("appending to window %v reached the cached history:\n got %v\nwant %v", win, all, hist)
		}
	}
	shared := NewFetcher(src, nil)
	for _, win := range windows {
		check(NewFetcher(src, nil), win) // served on the miss that fills the cache
		check(shared, win)               // served from the cached history
	}
}

func TestCacheEviction(t *testing.T) {
	w := newTestWorld(t)
	backend := newCounting(NewMemory(w.hist))
	reg := obs.NewRegistry()
	// Players source 6 actions, clubs 6 (the squad edits); a capacity of 8
	// holds one type but never both.
	c := newFetcher(backend, reg, withCapacity(8))
	ctx := context.Background()

	if _, err := c.FetchType(ctx, "FootballPlayer", w.span); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FetchType(ctx, "FootballClub", w.span); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FetchType(ctx, "FootballPlayer", w.span); err != nil {
		t.Fatal(err)
	}
	if got := backend.count("FootballPlayer"); got != 2 {
		t.Fatalf("player history fetched %d times, want 2 (evicted between)", got)
	}
	st := cacheStats(reg)
	if st.Evictions == 0 {
		t.Fatalf("stats = %+v, want evictions > 0", st)
	}
	if st.Misses != 3 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 3 misses / 0 hits", st)
	}
}

func TestCacheCoalescesConcurrentMisses(t *testing.T) {
	w := newTestWorld(t)
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	backend := newCounting(&stubSource{reg: w.reg, fetch: func(ctx context.Context, tt taxonomy.Type, win action.Window) ([]action.Action, error) {
		entered <- struct{}{}
		<-gate
		return w.hist.ActionsOf(w.players, win), nil
	}})
	reg := obs.NewRegistry()
	c := NewFetcher(backend, reg)
	ctx := context.Background()

	var wg sync.WaitGroup
	results := make([]int, 2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		as, err := c.FetchType(ctx, "FootballPlayer", w.span)
		if err != nil {
			t.Error(err)
		}
		results[0] = len(as)
	}()
	<-entered // the first fetch holds the backend
	wg.Add(1)
	go func() {
		defer wg.Done()
		as, err := c.FetchType(ctx, "FootballPlayer", w.span)
		if err != nil {
			t.Error(err)
		}
		results[1] = len(as)
	}()
	// Wait for the second caller to register as coalesced, then release.
	for reg.Counter(obs.SourceCacheCoalesced).Value() == 0 {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()

	if got := backend.count("FootballPlayer"); got != 1 {
		t.Fatalf("backend fetched %d times, want 1 (coalesced)", got)
	}
	if results[0] != results[1] || results[0] == 0 {
		t.Fatalf("coalesced results differ: %v", results)
	}
	st := cacheStats(reg)
	if st.Misses != 1 || st.Coalesced != 1 {
		t.Fatalf("stats = %+v, want 1 miss / 1 coalesced", st)
	}
}

func TestCacheDoesNotCacheErrors(t *testing.T) {
	w := newTestWorld(t)
	backend := newCounting(WithFaults(NewMemory(w.hist), Faults{FailFirst: 1}, nil))
	reg := obs.NewRegistry()
	lim := fetchLimits
	lim.attempts = 1 // the fault fails the first fetch, not just its first attempt
	c := newFetcher(backend, reg, lim)
	ctx := context.Background()

	if _, err := c.FetchType(ctx, "FootballPlayer", w.span); err == nil {
		t.Fatal("first fetch should fail")
	}
	as, err := c.FetchType(ctx, "FootballPlayer", w.span)
	if err != nil {
		t.Fatalf("second fetch should recover: %v", err)
	}
	if len(as) == 0 {
		t.Fatal("second fetch returned no actions")
	}
	st := cacheStats(reg)
	if st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("stats = %+v: a failed fetch must stay a miss", st)
	}
	if got := backend.count("FootballPlayer"); got != 2 {
		t.Fatalf("backend fetched %d times, want 2", got)
	}
}

// TestCacheAccountingUnderConcurrentLoad is the cost-accounting audit
// regression test: a storm of concurrent fetches over a capacity that
// holds only one of two types — so coalesced fetches, inserts and
// evictions race constantly — must leave the books exactly balanced.
// The invariants pinned here:
//
//   - every admission is counted exactly once (hits + misses +
//     coalesced == calls), so a coalesced fetch never double-counts;
//   - a coalesced fetch never double-inserts: with an error-free
//     backend, misses − residents == evictions, i.e. every insert is
//     accounted to exactly one miss and every removal to one eviction;
//   - the resident size equals the sum of resident entry costs, stays
//     within capacity, and matches the size gauge.
func TestCacheAccountingUnderConcurrentLoad(t *testing.T) {
	w := newTestWorld(t)
	backend := newCounting(NewMemory(w.hist))
	reg := obs.NewRegistry()
	// Capacity 8 holds one type's six actions but never both types.
	c := newFetcher(backend, reg, withCapacity(8))
	ctx := context.Background()

	const goroutines = 8
	const iters = 50
	types := []taxonomy.Type{"FootballPlayer", "FootballClub"}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				tt := types[(g+i)%len(types)]
				as, err := c.FetchType(ctx, tt, w.span)
				if err != nil {
					t.Errorf("fetch %s: %v", tt, err)
					return
				}
				if len(as) == 0 {
					t.Errorf("fetch %s returned no actions", tt)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	st := cacheStats(reg)
	if total := st.Hits + st.Misses + st.Coalesced; total != goroutines*iters {
		t.Fatalf("admissions %d (hits %d + misses %d + coalesced %d) != calls %d — an admission was double- or un-counted",
			total, st.Hits, st.Misses, st.Coalesced, goroutines*iters)
	}
	if fetched := int64(backend.count("FootballPlayer") + backend.count("FootballClub")); fetched != st.Misses {
		t.Fatalf("backend fetched %d times but stats count %d misses", fetched, st.Misses)
	}

	c.mu.Lock()
	size, resident, lruLen := c.size, len(c.entries), c.lru.Len()
	var costSum int
	for _, el := range c.entries {
		costSum += entryCost(el.Value.(*cacheEntry).actions)
	}
	c.mu.Unlock()
	if resident != lruLen {
		t.Fatalf("entry map holds %d types, LRU list %d — the two stores diverged", resident, lruLen)
	}
	if size != costSum {
		t.Fatalf("size %d != sum of resident entry costs %d — a racing insert double-counted", size, costSum)
	}
	if size > 8 {
		t.Fatalf("size %d exceeds capacity 8", size)
	}
	// Error-free backend: every miss inserted exactly once, so whatever
	// is not resident anymore must have been evicted — and counted.
	if got, want := st.Evictions, st.Misses-int64(resident); got != want {
		t.Fatalf("evictions %d != misses %d − residents %d: eviction stats do not match actual evictions",
			got, st.Misses, resident)
	}
	snap := reg.Snapshot()
	if gauge := snap.Gauges[obs.SourceCacheActions]; gauge != float64(size) {
		t.Fatalf("size gauge %v != size %d", gauge, size)
	}
	if gauge := snap.Gauges[obs.SourceCacheTypes]; gauge != float64(resident) {
		t.Fatalf("types gauge %v != resident %d", gauge, resident)
	}
}
