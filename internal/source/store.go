package source

import (
	"context"
	"sort"
	"sync"

	"wiclean/internal/action"
	"wiclean/internal/mining"
	"wiclean/internal/taxonomy"
)

// Store adapts a HistorySource to the miner's revision-store interface:
// it implements mining.Store (ActionsOf / AllActions, Algorithm 1's two
// extraction paths), mining.TypeStore (whole-type pulls, §4's
// Optimization (b)), and mining.FallibleStore (typed fetch-failure
// surfacing). One Store is shared by every window miner of an
// Algorithm 2 run, so the Fetcher underneath it, and with it its cache,
// is shared across windows and refinement iterations.
//
// mining.Store methods cannot return errors, so fetch failures are
// sticky: the first one is recorded, the failing call returns no actions,
// and every later call short-circuits. Every reader checks it through
// mining.FetchFailure — the miner at each pull boundary, detection, the
// assistant and HistoryHandler after their reads — and returns the
// wrapped error instead of an answer computed from a partial graph.
type Store struct {
	src HistorySource
	//wiclean:allow-ctxfirst bridges the context-free mining.Store interface; NewStore documents the cancellation scope
	ctx context.Context

	// state is shared by every WithContext view of this store, so the
	// sticky error stays sticky across rebindings.
	state *fetchState
}

// fetchState is the mutable half of a Store, held behind a pointer so
// context-rebound views (WithContext) copy the binding, not the state.
type fetchState struct {
	mu  sync.Mutex
	err error
}

// Interface conformance: the miner's base, type-granular, fallible and
// context-rebinding store extensions.
var (
	_ mining.Store         = (*Store)(nil)
	_ mining.TypeStore     = (*Store)(nil)
	_ mining.FallibleStore = (*Store)(nil)
	_ mining.ContextStore  = (*Store)(nil)
)

// NewStore returns a Store fetching through src under ctx; canceling ctx
// aborts every subsequent fetch of every miner sharing the store.
func NewStore(ctx context.Context, src HistorySource) *Store {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Store{src: src, ctx: ctx, state: &fetchState{}}
}

// WithContext returns a view of this store whose fetches run under ctx —
// the mining.ContextStore hook. The view shares the source (and with it
// the Fetcher's cache) and the sticky error with its parent: a fetch
// failure in any view fails them all, preserving the "better no result
// than a partial graph" contract. MineContext rebinds the shared store
// to its own traced context, so per-fetch source spans join that trace
// and cancellation reaches in-flight fetches.
func (s *Store) WithContext(ctx context.Context) mining.Store {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Store{src: s.src, ctx: ctx, state: s.state}
}

// Registry returns the source's entity registry.
func (s *Store) Registry() *taxonomy.Registry { return s.src.Registry() }

// FetchErr returns the first fetch failure, if any — the
// mining.FallibleStore hook.
func (s *Store) FetchErr() error {
	s.state.mu.Lock()
	defer s.state.mu.Unlock()
	return s.state.err
}

// fetch pulls one type, recording the first failure and short-circuiting
// once failed.
func (s *Store) fetch(t taxonomy.Type, w action.Window) []action.Action {
	s.state.mu.Lock()
	failed := s.state.err != nil
	s.state.mu.Unlock()
	if failed {
		return nil
	}
	out, err := s.src.FetchType(s.ctx, t, w)
	if err != nil {
		s.state.mu.Lock()
		if s.state.err == nil {
			s.state.err = err
		}
		s.state.mu.Unlock()
		return nil
	}
	return out
}

// ActionsOf implements the per-entity extraction path of Algorithm 1,
// line 1 (reduced_and_abstract_actions over the seed set): it groups the
// requested entities by most specific type, fetches each type once, and
// keeps only the requested entities' actions, merged in time order. A
// type's fetch also holds its subtypes' entities, so each action is kept
// from the fetch of its source's most specific type only: an entity
// requested together with an entity of its subtype is read once. Through
// a Fetcher, a seed set of one type costs a single backend fetch
// regardless of how many windows ask.
func (s *Store) ActionsOf(ids []taxonomy.EntityID, w action.Window) []action.Action {
	reg := s.Registry()
	want := make(map[taxonomy.EntityID]taxonomy.Type, len(ids)) // id -> most specific type
	byType := map[taxonomy.Type]bool{}
	var types []taxonomy.Type
	for _, id := range ids {
		t := reg.TypeOf(id)
		want[id] = t
		if t != "" && !byType[t] {
			byType[t] = true
			types = append(types, t)
		}
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	var out []action.Action
	for _, t := range types {
		for _, a := range s.fetch(t, w) {
			if want[a.Edge.Src] == t {
				out = append(out, a)
			}
		}
	}
	action.SortByTime(out)
	return out
}

// ActionsOfType implements the type-granular pull of the incremental
// loop (Algorithm 1, lines 5–8): one fetch covers entities(t). The
// mining.TypeStore hook.
func (s *Store) ActionsOfType(t taxonomy.Type, w action.Window) []action.Action {
	return s.fetch(t, w)
}

// AllActions materializes the full edits graph of the window — the
// access path of the non-incremental variants (PM−inc, §6.1) — by
// fetching every populated type. A type's fetch also holds its subtypes'
// entities, so each fetch keeps only the actions of entities whose most
// specific type is the fetched one, and every action is read once.
func (s *Store) AllActions(w action.Window) []action.Action {
	reg := s.Registry()
	var out []action.Action
	for _, t := range reg.PopulatedTypes() {
		for _, a := range s.fetch(t, w) {
			if reg.TypeOf(a.Edge.Src) == t {
				out = append(out, a)
			}
		}
	}
	action.SortByTime(out)
	return out
}
