package leakcheck

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestMain guards this package with its own detector: the deliberate
// leaks below all release their goroutines before returning, so a clean
// package-level diff doubles as an end-to-end test of Main's machinery.
func TestMain(m *testing.M) {
	Main(m)
}

// parkUntilClosed blocks until ch closes — a named frame the tests can
// recognize in a leaked stack.
func parkUntilClosed(ch chan struct{}) {
	<-ch
}

// TestDetectsDeliberateLeak parks a goroutine and asserts the diff
// reports it with a useful stack, state, and ID.
func TestDetectsDeliberateLeak(t *testing.T) {
	before := idSet(Snapshot())

	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		close(started)
		parkUntilClosed(release)
	}()
	<-started
	defer close(release)

	// The goroutine is genuinely blocked, so even a generous settle
	// window must still report it.
	leaked := settle(before, MaxWait(300*time.Millisecond))
	if len(leaked) != 1 {
		t.Fatalf("settle reported %d leaked goroutines, want exactly 1", len(leaked))
	}
	g := leaked[0]
	if !strings.Contains(g.Stack, "parkUntilClosed") {
		t.Errorf("leaked stack does not name the blocked function:\n%s", g.Stack)
	}
	if g.State != "chan receive" {
		t.Errorf("leaked goroutine state = %q, want \"chan receive\"", g.State)
	}
	if g.ID <= 0 {
		t.Errorf("leaked goroutine ID = %d, want positive", g.ID)
	}
}

// TestSettleAbsorbsSlowTeardown proves the retry loop: a goroutine that
// exits 50ms after the diff starts must settle out, not flake — the
// property that keeps the TestMain guards stable under -race.
func TestSettleAbsorbsSlowTeardown(t *testing.T) {
	before := idSet(Snapshot())

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(50 * time.Millisecond)
	}()

	if leaked := settle(before, MaxWait(2*time.Second)); len(leaked) > 0 {
		t.Fatalf("settle reported %d goroutines that were merely slow to exit:\n%s",
			len(leaked), leaked[0].Stack)
	}
	wg.Wait()
}

// TestIgnoreSubstring filters a deliberately-parked goroutine by a
// stack substring.
func TestIgnoreSubstring(t *testing.T) {
	before := idSet(Snapshot())

	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		close(started)
		parkUntilClosed(release)
	}()
	<-started
	defer close(release)

	if leaked := settle(before, MaxWait(200*time.Millisecond), IgnoreSubstring("parkUntilClosed")); len(leaked) > 0 {
		t.Fatalf("ignored goroutine still reported:\n%s", leaked[0].Stack)
	}
}

// TestCheckPerTest exercises the t.Cleanup path: the parked goroutine
// is released by a cleanup registered after Check, which therefore runs
// before Check's diff (cleanups run last-in-first-out), so the guard
// must see nothing.
func TestCheckPerTest(t *testing.T) {
	Check(t, MaxWait(2*time.Second))

	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		close(started)
		parkUntilClosed(release)
	}()
	<-started
	t.Cleanup(func() { close(release) })
}

// TestSnapshotExcludesSelf asserts the calling goroutine never appears
// in its own snapshot.
func TestSnapshotExcludesSelf(t *testing.T) {
	self := currentID()
	if self <= 0 {
		t.Fatalf("currentID() = %d, want positive", self)
	}
	for _, g := range Snapshot() {
		if g.ID == self {
			t.Fatalf("snapshot contains the calling goroutine (id %d)", self)
		}
	}
}

// TestParseGoroutine covers the header parser against the formats
// runtime.Stack emits.
func TestParseGoroutine(t *testing.T) {
	cases := []struct {
		name  string
		chunk string
		ok    bool
		id    int
		state string
	}{
		{
			name:  "running",
			chunk: "goroutine 1 [running]:\nmain.main()\n\t/src/main.go:10 +0x20",
			ok:    true, id: 1, state: "running",
		},
		{
			name:  "blocked with duration",
			chunk: "goroutine 42 [chan receive, 3 minutes]:\npkg.f()\n\t/src/f.go:5 +0x11",
			ok:    true, id: 42, state: "chan receive",
		},
		{
			name:  "empty",
			chunk: "   \n",
			ok:    false,
		},
		{
			name:  "not a header",
			chunk: "some unrelated text",
			ok:    false,
		},
	}
	for _, tc := range cases {
		g, ok := parseGoroutine(tc.chunk)
		if ok != tc.ok {
			t.Errorf("%s: ok = %v, want %v", tc.name, ok, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		if g.ID != tc.id || g.State != tc.state {
			t.Errorf("%s: parsed (id=%d, state=%q), want (id=%d, state=%q)",
				tc.name, g.ID, g.State, tc.id, tc.state)
		}
	}
}

// TestBenignFilter asserts the built-in list catches the runtime-owned
// stacks that are always present.
func TestBenignFilter(t *testing.T) {
	g := Goroutine{Stack: "goroutine 7 [GC worker (idle)]:\nruntime.gcBgMarkWorker()\n\t..."}
	if !isBenign(g, nil) {
		t.Errorf("GC background worker not classified benign")
	}
	g = Goroutine{Stack: "goroutine 9 [syscall]:\nos/signal.signal_recv()\n\t..."}
	if !isBenign(g, nil) {
		t.Errorf("signal watcher not classified benign")
	}
	g = Goroutine{Stack: "goroutine 11 [chan receive]:\nwiclean/internal/loadgen.run()\n\t..."}
	if isBenign(g, nil) {
		t.Errorf("application goroutine wrongly classified benign")
	}
}
