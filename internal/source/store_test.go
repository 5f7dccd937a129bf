package source

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"

	"wiclean/internal/action"
	"wiclean/internal/mining"
	"wiclean/internal/taxonomy"
)

// buildStack puts the test world's in-memory history, with optional
// faults under it, behind a Fetcher of six attempts and an instant
// backoff, and wraps it in a Store.
func buildStack(t *testing.T, w *testWorld, faults *Faults) *Store {
	t.Helper()
	var src HistorySource = NewMemory(w.hist)
	if faults != nil {
		src = WithFaults(src, *faults, nil)
	}
	lim := instant()
	lim.attempts = 6
	return NewStore(context.Background(), newFetcher(src, nil, lim))
}

func TestStoreMatchesHistory(t *testing.T) {
	w := newTestWorld(t)
	st := buildStack(t, w, nil)

	// ActionsOf over a mixed-type id set must equal the in-memory path.
	for _, win := range []action.Window{w.span, {Start: 10, End: 14}, {Start: 500, End: 600}} {
		idset := append(append(w.players[:0:0], w.players...), w.clubs...)
		got := st.ActionsOf(idset, win)
		want := w.hist.ActionsOf(idset, win)
		if len(got) != len(want) {
			t.Fatalf("window %v: ActionsOf returned %d actions, want %d", win, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("window %v: action %d = %+v, want %+v", win, i, got[i], want[i])
			}
		}
	}

	gotAll := st.AllActions(w.span)
	wantAll := w.hist.AllActions(w.span)
	if len(gotAll) != len(wantAll) {
		t.Fatalf("AllActions returned %d actions, want %d", len(gotAll), len(wantAll))
	}

	byType := st.ActionsOfType("FootballPlayer", w.span)
	wantType := w.hist.ActionsOf(w.players, w.span)
	if len(byType) != len(wantType) {
		t.Fatalf("ActionsOfType returned %d actions, want %d", len(byType), len(wantType))
	}
	if err := st.FetchErr(); err != nil {
		t.Fatalf("clean store reports fetch error: %v", err)
	}

	// A type's fetch also holds its subtypes' entities: an id set with an
	// entity and an entity of its populated subtype must still read each
	// action once.
	kw, keeper := newKeeperWorld(t)
	kst := buildStack(t, kw, nil)
	for _, idset := range [][]taxonomy.EntityID{
		{keeper, kw.players[0]},
		append([]taxonomy.EntityID{keeper}, kw.players...),
		{keeper},
	} {
		if got, want := kst.ActionsOf(idset, kw.span), kw.hist.ActionsOf(idset, kw.span); !sameByTime(got, want) {
			t.Errorf("ids %v: ActionsOf = %v, want %v", idset, got, want)
		}
	}
	if got, want := kst.AllActions(kw.span), kw.hist.AllActions(kw.span); !sameByTime(got, want) {
		t.Errorf("AllActions over a subtype = %v, want %v", got, want)
	}
}

// newKeeperWorld is the test world plus a Goalkeeper subtype of
// FootballPlayer with one keeper, K1, who moves at the timestamps of the
// first player's moves.
func newKeeperWorld(t *testing.T) (*testWorld, taxonomy.EntityID) {
	t.Helper()
	w := newTestWorld(t)
	w.reg.Taxonomy().MustAdd("Goalkeeper", "FootballPlayer")
	k := w.reg.MustAdd("K1", "Goalkeeper")
	w.hist.AddActions(
		action.Action{Op: action.Remove, Edge: action.Edge{Src: k, Label: "current_club", Dst: w.clubs[0]}, T: 10},
		action.Action{Op: action.Add, Edge: action.Edge{Src: k, Label: "current_club", Dst: w.clubs[1]}, T: 11},
	)
	return w, k
}

// sameByTime reports whether got is in time order and holds exactly
// want's actions. The actions of one timestamp compare as a multiset: a
// History orders them by the requested ids, a Store by fetched type.
func sameByTime(got, want []action.Action) bool {
	if len(got) != len(want) {
		return false
	}
	for i := 1; i < len(got); i++ {
		if got[i].T < got[i-1].T {
			return false
		}
	}
	key := func(as []action.Action) []string {
		out := make([]string, len(as))
		for i, a := range as {
			out[i] = fmt.Sprint(a.T, a)
		}
		sort.Strings(out)
		return out
	}
	return slices.Equal(key(got), key(want))
}

func TestStoreImplementsMinerInterfaces(t *testing.T) {
	w := newTestWorld(t)
	st := buildStack(t, w, nil)
	var s mining.Store = st
	if _, ok := s.(mining.TypeStore); !ok {
		t.Fatal("Store does not implement mining.TypeStore")
	}
	if _, ok := s.(mining.FallibleStore); !ok {
		t.Fatal("Store does not implement mining.FallibleStore")
	}
}

func TestStoreMiningEquivalence(t *testing.T) {
	w := newTestWorld(t)
	st := buildStack(t, w, nil)
	cfg := mining.PM(0.7)
	cfg.MaxAbstraction = 0

	direct, err := mining.Mine(w.hist, w.players, "FootballPlayer", w.span, cfg)
	if err != nil {
		t.Fatal(err)
	}
	viaSource, err := mining.Mine(st, w.players, "FootballPlayer", w.span, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Format() != viaSource.Format() {
		t.Fatalf("mining through the source stack diverged:\ndirect:\n%s\nsource:\n%s",
			direct.Format(), viaSource.Format())
	}
}

func TestStoreStickyError(t *testing.T) {
	w := newTestWorld(t)
	// Rate 1.0: every attempt fails, the retry allowance runs dry.
	st := buildStack(t, w, &Faults{Rate: 1.0})

	if got := st.ActionsOfType("FootballPlayer", w.span); len(got) != 0 {
		t.Fatalf("failing store returned %d actions, want none", len(got))
	}
	err := st.FetchErr()
	if err == nil {
		t.Fatal("FetchErr is nil after a failed fetch")
	}
	var fe *FetchError
	if !errors.As(err, &fe) {
		t.Fatalf("want *FetchError, got %T: %v", err, err)
	}
	if !errors.Is(err, ErrExhausted) || !errors.Is(err, ErrInjected) {
		t.Fatalf("error chain lost its markers: %v", err)
	}

	// The error is sticky and later fetches short-circuit without reaching
	// the backend: the first failure is preserved verbatim.
	if got := st.ActionsOf(w.players, w.span); len(got) != 0 {
		t.Fatalf("store kept serving after failure: %d actions", len(got))
	}
	if again := st.FetchErr(); !errors.Is(again, err) && again.Error() != err.Error() {
		t.Fatalf("sticky error changed: %v -> %v", err, again)
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := (Options{Kind: KindDump}).Build(nil, nil); err == nil {
		t.Fatal("dump kind without a path must fail")
	}
	if _, err := (Options{Kind: KindHTTP}).Build(nil, nil); err == nil {
		t.Fatal("http kind without a URL must fail")
	}
	if _, err := (Options{Kind: "carrier-pigeon"}).Build(nil, nil); err == nil {
		t.Fatal("unknown kind must fail")
	}
	if _, err := (Options{Kind: KindMemory}).Build(nil, nil); err == nil {
		t.Fatal("memory kind without a history must fail")
	}
}
