package source

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"testing"

	"wiclean/internal/mining"
	"wiclean/internal/model"
	"wiclean/internal/obs"
	"wiclean/internal/taxonomy"
	"wiclean/internal/windows"
)

// runWindows executes a full Algorithm 2 walk over the given store and
// returns the serialized model bytes — the comparison medium for the
// determinism guarantees.
func runWindows(t *testing.T, w *testWorld, store mining.Store) []byte {
	t.Helper()
	cfg := windows.Defaults()
	cfg.Mining = mining.PM(cfg.InitialTau)
	cfg.Mining.MaxAbstraction = 0
	o, err := windows.Run(store, w.players, "FootballPlayer", w.span, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.Write(&buf, model.Snapshot(o, w.reg, model.Provenance{})); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMiningByteIdenticalUnderTransientFaults is the resilience contract:
// a 20% transient fault rate (plus a scripted first-attempt failure per
// type) costs retries, never output. The mined model must be byte-for-byte
// the model of a fault-free run, with zero give-ups.
func TestMiningByteIdenticalUnderTransientFaults(t *testing.T) {
	w := newTestWorld(t)

	clean := runWindows(t, w, buildStack(t, w, nil))

	reg := obs.NewRegistry()
	lim := instant()
	lim.attempts = 6
	faults := WithFaults(NewMemory(w.hist), Faults{Seed: 1, Rate: 0.2, FailFirst: 1}, reg)
	st := NewStore(context.Background(), newFetcher(faults, reg, lim))
	faulted := runWindows(t, w, st)

	if !bytes.Equal(clean, faulted) {
		t.Fatalf("fault-injected model diverged from fault-free model:\nclean:\n%s\nfaulted:\n%s", clean, faulted)
	}
	snap := reg.Snapshot()
	if snap.Counters[obs.SourceRetries] == 0 {
		t.Fatal("no retries recorded: the fault model did not bite")
	}
	if snap.Counters[obs.SourceGiveUps] != 0 {
		t.Fatalf("give-ups = %d, want 0", snap.Counters[obs.SourceGiveUps])
	}
	if snap.Counters[obs.SourceFaultsInjected] == 0 {
		t.Fatal("no faults injected")
	}
}

// TestMiningSurfacesExhaustionNotPartialGraph pins the failure contract:
// when the retry allowance runs out, the miner must return a wrapped
// *FetchError (carrying ErrExhausted) and a nil result — never patterns
// mined from whatever happened to be fetched before the failure.
func TestMiningSurfacesExhaustionNotPartialGraph(t *testing.T) {
	w := newTestWorld(t)
	st := buildStack(t, w, &Faults{Rate: 1.0})
	cfg := mining.PM(0.7)
	cfg.MaxAbstraction = 0

	res, err := mining.Mine(st, w.players, "FootballPlayer", w.span, cfg)
	if err == nil {
		t.Fatal("mining over a dead backend succeeded")
	}
	if res != nil {
		t.Fatalf("mining returned a partial result alongside the error: %s", res.Format())
	}
	var fe *FetchError
	if !errors.As(err, &fe) {
		t.Fatalf("want *FetchError in the chain, got %v", err)
	}
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("want ErrExhausted in the chain, got %v", err)
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want the injected cause in the chain, got %v", err)
	}
}

// TestWindowsRunSurfacesFetchFailure extends the same contract to the full
// Algorithm 2 walk: a dead backend aborts the run instead of converging on
// patterns from a partially fetched graph.
func TestWindowsRunSurfacesFetchFailure(t *testing.T) {
	w := newTestWorld(t)
	st := buildStack(t, w, &Faults{Rate: 1.0})
	cfg := windows.Defaults()
	cfg.Mining = mining.PM(cfg.InitialTau)
	cfg.Mining.MaxAbstraction = 0

	o, err := windows.Run(st, w.players, "FootballPlayer", w.span, cfg)
	if err == nil {
		t.Fatalf("windows.Run over a dead backend succeeded: %+v", o)
	}
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("want ErrExhausted in the chain, got %v", err)
	}
}

// TestFaultInjectionDeterministic pins the reproducibility of the fault
// schedule itself: two sources with the same seed fail the same attempts.
func TestFaultInjectionDeterministic(t *testing.T) {
	w := newTestWorld(t)
	run := func() []bool {
		fs := WithFaults(NewMemory(w.hist), Faults{Seed: 42, Rate: 0.5}, nil)
		var failed []bool
		for i := 0; i < 20; i++ {
			for _, tt := range []taxonomy.Type{"FootballPlayer", "FootballClub"} {
				_, err := fs.FetchType(context.Background(), tt, w.span)
				failed = append(failed, errors.Is(err, ErrInjected))
			}
		}
		return failed
	}
	a, b := run(), run()
	if !slices.Equal(a, b) {
		t.Fatalf("fault schedules differ across identical runs:\n%v\n%v", a, b)
	}
	if !slices.Contains(a, true) {
		t.Fatal("rate 0.5 injected nothing over 40 attempts")
	}
}
