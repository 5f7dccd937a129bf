package source

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"wiclean/internal/action"
	"wiclean/internal/dump"
	"wiclean/internal/obs"
	"wiclean/internal/taxonomy"
)

// testWorld is a minimal soccer world: three players transfer between two
// clubs with the four-edit reciprocal pattern.
type testWorld struct {
	reg     *taxonomy.Registry
	hist    *dump.History
	players []taxonomy.EntityID
	clubs   []taxonomy.EntityID
	span    action.Window
}

func newTestWorld(t *testing.T) *testWorld {
	t.Helper()
	x := taxonomy.New()
	x.AddChain("Agent", "Person", "FootballPlayer")
	x.AddChain("Agent", "Organisation", "FootballClub")
	reg := taxonomy.NewRegistry(x)
	w := &testWorld{reg: reg, hist: dump.NewHistory(reg), span: action.Window{Start: 0, End: 200}}
	for _, n := range []string{"P1", "P2", "P3"} {
		w.players = append(w.players, reg.MustAdd(n, "FootballPlayer"))
	}
	for _, n := range []string{"C1", "C2"} {
		w.clubs = append(w.clubs, reg.MustAdd(n, "FootballClub"))
	}
	for i, p := range w.players {
		ts := action.Time(10*i + 10)
		w.hist.AddActions(
			action.Action{Op: action.Remove, Edge: action.Edge{Src: p, Label: "current_club", Dst: w.clubs[0]}, T: ts},
			action.Action{Op: action.Add, Edge: action.Edge{Src: p, Label: "current_club", Dst: w.clubs[1]}, T: ts + 1},
			action.Action{Op: action.Add, Edge: action.Edge{Src: w.clubs[1], Label: "squad", Dst: p}, T: ts + 2},
			action.Action{Op: action.Remove, Edge: action.Edge{Src: w.clubs[0], Label: "squad", Dst: p}, T: ts + 3},
		)
	}
	return w
}

// stubSource is a scriptable HistorySource for middleware tests.
type stubSource struct {
	reg   *taxonomy.Registry
	fetch func(ctx context.Context, t taxonomy.Type, w action.Window) ([]action.Action, error)
}

func (s *stubSource) Registry() *taxonomy.Registry { return s.reg }
func (s *stubSource) FetchType(ctx context.Context, t taxonomy.Type, w action.Window) ([]action.Action, error) {
	return s.fetch(ctx, t, w)
}

// noSleep replaces backoff waits in tests.
func noSleep(ctx context.Context, _ time.Duration) error { return ctx.Err() }

func TestMemoryFetchType(t *testing.T) {
	w := newTestWorld(t)
	src := NewMemory(w.hist)
	win := action.Window{Start: 10, End: 14}
	got, err := src.FetchType(context.Background(), "FootballPlayer", win)
	if err != nil {
		t.Fatal(err)
	}
	want := w.hist.ActionsOf(w.players, win)
	if len(got) != len(want) || len(got) != 2 {
		t.Fatalf("got %d actions, want %d (2)", len(got), len(want))
	}
	for i := 1; i < len(got); i++ {
		if got[i].T < got[i-1].T {
			t.Fatalf("actions not sorted by time: %v", got)
		}
	}

	_, err = src.FetchType(context.Background(), "NoSuchType", win)
	if err == nil || !IsPermanent(err) {
		t.Fatalf("unknown type: want permanent error, got %v", err)
	}
}

func TestWithTimeout(t *testing.T) {
	w := newTestWorld(t)
	slow := &stubSource{reg: w.reg, fetch: func(ctx context.Context, _ taxonomy.Type, _ action.Window) ([]action.Action, error) {
		select {
		case <-time.After(5 * time.Second):
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}}
	src := WithTimeout(slow, 10*time.Millisecond)
	_, err := src.FetchType(context.Background(), "FootballPlayer", w.span)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline exceeded, got %v", err)
	}
}

func TestWithRetryMasksTransientFaults(t *testing.T) {
	w := newTestWorld(t)
	reg := obs.NewRegistry()
	faulty := WithFaults(NewMemory(w.hist), Faults{FailFirst: 2}, reg)
	p := DefaultRetryPolicy()
	p.Sleep = noSleep
	p.Obs = reg
	src := WithRetry(faulty, p)

	got, err := src.FetchType(context.Background(), "FootballPlayer", w.span)
	if err != nil {
		t.Fatal(err)
	}
	want := w.hist.ActionsOf(w.players, w.span)
	if len(got) != len(want) {
		t.Fatalf("masked fetch returned %d actions, want %d", len(got), len(want))
	}
	snap := reg.Snapshot()
	if snap.Counters[obs.SourceRetries] != 2 {
		t.Fatalf("retries = %d, want 2", snap.Counters[obs.SourceRetries])
	}
	if snap.Counters[obs.SourceGiveUps] != 0 {
		t.Fatalf("give-ups = %d, want 0", snap.Counters[obs.SourceGiveUps])
	}
}

func TestWithRetryExhaustion(t *testing.T) {
	w := newTestWorld(t)
	reg := obs.NewRegistry()
	faulty := WithFaults(NewMemory(w.hist), Faults{FailFirst: 100}, nil)
	p := DefaultRetryPolicy()
	p.MaxAttempts = 3
	p.Sleep = noSleep
	p.Obs = reg
	src := WithRetry(faulty, p)

	_, err := src.FetchType(context.Background(), "FootballPlayer", w.span)
	var fe *FetchError
	if !errors.As(err, &fe) {
		t.Fatalf("want *FetchError, got %T: %v", err, err)
	}
	if fe.Type != "FootballPlayer" || fe.Attempts != 3 {
		t.Fatalf("FetchError = %+v, want type FootballPlayer after 3 attempts", fe)
	}
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("want ErrExhausted in chain, got %v", err)
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want the underlying cause in chain, got %v", err)
	}
	if reg.Snapshot().Counters[obs.SourceGiveUps] != 1 {
		t.Fatalf("give-ups = %d, want 1", reg.Snapshot().Counters[obs.SourceGiveUps])
	}
}

func TestWithRetryPermanentFailsFast(t *testing.T) {
	w := newTestWorld(t)
	calls := 0
	src := &stubSource{reg: w.reg, fetch: func(context.Context, taxonomy.Type, action.Window) ([]action.Action, error) {
		calls++
		return nil, Permanent(errors.New("gone"))
	}}
	p := DefaultRetryPolicy()
	p.Sleep = noSleep
	_, err := WithRetry(src, p).FetchType(context.Background(), "FootballPlayer", w.span)
	var fe *FetchError
	if !errors.As(err, &fe) || fe.Attempts != 1 || calls != 1 {
		t.Fatalf("permanent error retried: calls=%d err=%v", calls, err)
	}
	if errors.Is(err, ErrExhausted) {
		t.Fatalf("permanent failure should not claim exhaustion: %v", err)
	}
	if !IsPermanent(err) {
		t.Fatalf("permanence lost through the retry wrapper: %v", err)
	}
}

func TestWithRetryBudget(t *testing.T) {
	w := newTestWorld(t)
	faulty := WithFaults(NewMemory(w.hist), Faults{FailFirst: 100}, nil)
	p := DefaultRetryPolicy()
	p.MaxAttempts = 10
	p.Budget = 1
	p.Sleep = noSleep
	src := WithRetry(faulty, p)

	_, err := src.FetchType(context.Background(), "FootballPlayer", w.span)
	var fe *FetchError
	if !errors.As(err, &fe) {
		t.Fatalf("want *FetchError, got %v", err)
	}
	// One initial attempt plus the single budgeted retry.
	if fe.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (budget of 1 retry)", fe.Attempts)
	}
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("budget exhaustion should wrap ErrExhausted: %v", err)
	}
}

func TestWithLimitBoundsConcurrency(t *testing.T) {
	w := newTestWorld(t)
	var mu sync.Mutex
	inflight, maxInflight := 0, 0
	src := &stubSource{reg: w.reg, fetch: func(context.Context, taxonomy.Type, action.Window) ([]action.Action, error) {
		mu.Lock()
		inflight++
		if inflight > maxInflight {
			maxInflight = inflight
		}
		mu.Unlock()
		time.Sleep(5 * time.Millisecond)
		mu.Lock()
		inflight--
		mu.Unlock()
		return nil, nil
	}}
	limited := WithLimit(src, 2, nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = limited.FetchType(context.Background(), "FootballPlayer", w.span)
		}()
	}
	wg.Wait()
	if maxInflight > 2 {
		t.Fatalf("max concurrent fetches = %d, want <= 2", maxInflight)
	}
}

func TestBackoffDeterministicAndCapped(t *testing.T) {
	p := DefaultRetryPolicy()
	p.BaseDelay = 10 * time.Millisecond
	p.MaxDelay = 50 * time.Millisecond
	var prev []time.Duration
	for run := 0; run < 2; run++ {
		var ds []time.Duration
		for k := 1; k <= 6; k++ {
			d := p.backoff("FootballPlayer", k)
			lo := time.Duration(float64(p.MaxDelay) * (1 + p.Jitter))
			if d > lo {
				t.Fatalf("retry %d delay %v above jittered cap %v", k, d, lo)
			}
			ds = append(ds, d)
		}
		if run == 1 {
			for i := range ds {
				if ds[i] != prev[i] {
					t.Fatalf("backoff not deterministic: run0=%v run1=%v", prev, ds)
				}
			}
		}
		prev = ds
	}
}

func TestFaultRollDeterministic(t *testing.T) {
	for n := 1; n <= 20; n++ {
		a := faultRoll(7, "FootballPlayer", n)
		b := faultRoll(7, "FootballPlayer", n)
		if a != b {
			t.Fatalf("faultRoll(7, FootballPlayer, %d) differs across calls: %v vs %v", n, a, b)
		}
		if a < 0 || a >= 1 {
			t.Fatalf("faultRoll out of [0,1): %v", a)
		}
	}
	if faultRoll(7, "FootballPlayer", 1) == faultRoll(8, "FootballPlayer", 1) {
		t.Fatal("faultRoll ignores the seed")
	}
}
