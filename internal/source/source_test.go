package source

import (
	"context"
	"errors"
	"fmt"
	"strings"
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

func newTestWorld(t testing.TB) *testWorld {
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

// instant returns the fetch path's limits with a backoff base of 1 ns,
// so tests never wait out a real backoff.
func instant() limits {
	lim := fetchLimits
	lim.base = 1
	return lim
}

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

// TestRetryGivesEachAttemptADeadline holds a fetch against a backend
// that never answers: each attempt ends at its own deadline, a fresh one
// per attempt, and the fetch fails after every attempt with the deadline
// as its cause.
func TestRetryGivesEachAttemptADeadline(t *testing.T) {
	w := newTestWorld(t)
	var mu sync.Mutex
	var deadlines []time.Time
	slow := &stubSource{reg: w.reg, fetch: func(ctx context.Context, _ taxonomy.Type, _ action.Window) ([]action.Action, error) {
		d, ok := ctx.Deadline()
		if !ok {
			t.Error("an attempt ran without a deadline")
		}
		mu.Lock()
		deadlines = append(deadlines, d)
		mu.Unlock()
		select {
		case <-time.After(5 * time.Second):
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}}
	lim := instant()
	lim.timeout = 10 * time.Millisecond
	_, err := newFetcher(slow, nil, lim).FetchType(context.Background(), "FootballPlayer", w.span)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline exceeded, got %v", err)
	}
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("a deadline is transient: want every attempt used, got %v", err)
	}
	if len(deadlines) != lim.attempts {
		t.Fatalf("%d attempts reached the backend, want %d", len(deadlines), lim.attempts)
	}
	for i := 1; i < len(deadlines); i++ {
		if !deadlines[i].After(deadlines[i-1]) {
			t.Fatalf("attempt %d's deadline %v is not after attempt %d's %v", i+1, deadlines[i], i, deadlines[i-1])
		}
	}
	if fetchLimits.timeout != 10*time.Second {
		t.Fatalf("production attempt deadline %v, want 10s", fetchLimits.timeout)
	}
}

func TestRetryMasksTransientFaults(t *testing.T) {
	w := newTestWorld(t)
	reg := obs.NewRegistry()
	faulty := WithFaults(NewMemory(w.hist), Faults{FailFirst: 2}, reg)
	src := newFetcher(faulty, reg, instant())

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

func TestRetryExhaustion(t *testing.T) {
	w := newTestWorld(t)
	reg := obs.NewRegistry()
	faulty := WithFaults(NewMemory(w.hist), Faults{FailFirst: 100}, nil)
	lim := instant()
	lim.attempts = 3
	src := newFetcher(faulty, reg, lim)

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
	if fetchLimits.attempts != 4 {
		t.Fatalf("production attempt allowance %d, want 4", fetchLimits.attempts)
	}
}

func TestRetryPermanentFailsFast(t *testing.T) {
	w := newTestWorld(t)
	calls := 0
	src := &stubSource{reg: w.reg, fetch: func(context.Context, taxonomy.Type, action.Window) ([]action.Action, error) {
		calls++
		return nil, Permanent(errors.New("gone"))
	}}
	_, err := newFetcher(src, nil, instant()).FetchType(context.Background(), "FootballPlayer", w.span)
	var fe *FetchError
	if !errors.As(err, &fe) || fe.Attempts != 1 || calls != 1 {
		t.Fatalf("permanent error retried: calls=%d err=%v", calls, err)
	}
	if errors.Is(err, ErrExhausted) {
		t.Fatalf("permanent failure should not claim exhaustion: %v", err)
	}
	if !IsPermanent(err) {
		t.Fatalf("permanence lost through the retry loop: %v", err)
	}
}

// TestRetryKeepsItsSlot checks the fetch slots: with the production
// limits, 16 concurrent misses of distinct types reach the backend at
// most 8 at a time; with one slot, two fetches whose first attempts fail
// run one after the other, each keeping the slot through its backoff.
func TestRetryKeepsItsSlot(t *testing.T) {
	w := newTestWorld(t)
	var mu sync.Mutex
	inflight, maxInflight := 0, 0
	src := &stubSource{reg: w.reg, fetch: func(context.Context, taxonomy.Type, action.Window) ([]action.Action, error) {
		mu.Lock()
		inflight++
		maxInflight = max(maxInflight, inflight)
		mu.Unlock()
		time.Sleep(5 * time.Millisecond)
		mu.Lock()
		inflight--
		mu.Unlock()
		return nil, nil
	}}
	limited := NewFetcher(src, nil)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _ = limited.FetchType(context.Background(), taxonomy.Type(fmt.Sprint("T", i)), w.span)
		}(i)
	}
	wg.Wait()
	if maxInflight > fetchSlots || fetchSlots != 8 {
		t.Fatalf("max concurrent fetches = %d, want <= %d (8)", maxInflight, fetchSlots)
	}

	var order []string
	tries := map[taxonomy.Type]int{}
	flaky := &stubSource{reg: w.reg, fetch: func(_ context.Context, tt taxonomy.Type, _ action.Window) ([]action.Action, error) {
		mu.Lock()
		defer mu.Unlock()
		tries[tt]++
		order = append(order, fmt.Sprint(tt, tries[tt]))
		if tries[tt] == 1 {
			return nil, errors.New("transient")
		}
		return nil, nil
	}}
	lim := fetchLimits
	lim.slots = 1
	lim.base = 5 * time.Millisecond
	one := newFetcher(flaky, nil, lim)
	for _, tt := range []taxonomy.Type{"A", "B"} {
		wg.Add(1)
		go func(tt taxonomy.Type) {
			defer wg.Done()
			if _, err := one.FetchType(context.Background(), tt, w.span); err != nil {
				t.Error(err)
			}
		}(tt)
	}
	wg.Wait()
	if got := strings.Join(order, " "); got != "A1 A2 B1 B2" && got != "B1 B2 A1 A2" {
		t.Fatalf("backend saw %q: a fetch gave up its slot between attempts", got)
	}
}

func TestBackoffDeterministicAndCapped(t *testing.T) {
	lim := fetchLimits
	lo := func(d time.Duration) time.Duration { return time.Duration(float64(d) * (1 - backoffJitter)) }
	hi := func(d time.Duration) time.Duration { return time.Duration(float64(d) * (1 + backoffJitter)) }
	var prev []time.Duration
	for run := 0; run < 2; run++ {
		var ds []time.Duration
		for k := 1; k <= 8; k++ {
			d := lim.backoff("FootballPlayer", k)
			want := min(backoffBase<<(k-1), backoffCap)
			if d < lo(want) || d > hi(want) {
				t.Fatalf("retry %d delay %v outside %v ± %v%%", k, d, want, 100*backoffJitter)
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
	if backoffBase != 50*time.Millisecond || backoffCap != 2*time.Second || backoffJitter != 0.2 {
		t.Fatalf("backoff %v doubling to %v ±%v, want 50ms doubling to 2s ±0.2", backoffBase, backoffCap, backoffJitter)
	}
}

func TestFaultRollDeterministic(t *testing.T) {
	for n := 1; n <= 20; n++ {
		a := uniform(7, "FootballPlayer", n)
		b := uniform(7, "FootballPlayer", n)
		if a != b {
			t.Fatalf("uniform(7, FootballPlayer, %d) differs across calls: %v vs %v", n, a, b)
		}
		if a < 0 || a >= 1 {
			t.Fatalf("uniform out of [0,1): %v", a)
		}
	}
	if uniform(7, "FootballPlayer", 1) == uniform(8, "FootballPlayer", 1) {
		t.Fatal("uniform ignores the seed")
	}
}
