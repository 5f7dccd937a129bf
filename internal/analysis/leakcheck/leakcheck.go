// Package leakcheck is the runtime half of the goroutine-leak defense:
// the goleak analyzer proves every `go` statement has a join shape at
// compile time; leakcheck proves the joins actually fire by diffing
// goroutine snapshots around a package's whole test run.
//
// The mechanism is a snapshot-diff of runtime.Stack(buf, true): Main
// records the goroutines alive before m.Run, and after a passing run
// diffs against the survivors. Goroutines the runtime itself owns —
// the GC workers, finalizer, signal handler, testing's own frames — are
// filtered by known-benign stack substrings; everything else left over
// is a leak, printed with its full stack, and the package's tests fail.
//
// Teardown is asynchronous (an httptest.Server.Close returns before its
// connection goroutines finish exiting), so the diff retries with
// backoff until a deadline instead of judging the first snapshot: a
// goroutine that is merely slow to exit settles out; one that is
// genuinely blocked survives every retry and is reported. This is what
// keeps the guard flake-free under -race, where everything runs slower.
//
// Wiring: packages that spawn goroutines (internal/mining,
// internal/plugin, internal/source) add
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
//
// and individual tests can tighten the scope with
// leakcheck.Check(t), which diffs around one test instead of the whole
// package.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// maxWait bounds the settle loop. Under -race everything is several
// times slower; 5s absorbs that while a genuine leak still fails fast —
// the loop exits early the moment the diff is empty.
const maxWait = 5 * time.Second

// benign are stack substrings of goroutines the runtime or the testing
// harness owns; their presence after a run is never a leak.
var benign = []string{
	// testing harness frames.
	"testing.Main(",
	"testing.tRunner(",
	"testing.(*M).",
	"testing.runTests(",
	"testing.runFuzzing(",
	// runtime-owned background workers.
	"runtime.goexit0",
	"runtime.runfinq",
	"runtime.bgsweep",
	"runtime.bgscavenge",
	"runtime.forcegchelper",
	"runtime.gcBgMarkWorker",
	"runtime.ReadTrace",
	"runtime/trace.Start",
	// os/signal installs a process-lifetime watcher goroutine the first
	// time signal.Notify runs (plugin.ReloadOnSIGHUP does); it never
	// exits by design.
	"os/signal.signal_recv",
	"os/signal.loop",
	"runtime.ensureSigM",
}

// Goroutine is one parsed entry of a runtime.Stack(buf, true) dump.
type Goroutine struct {
	ID    int
	State string // e.g. "running", "chan receive", "IO wait"
	Stack string // full stack text including the header line
}

// Option configures Main.
type Option func(*config)

type config struct {
	cleanups []func()
}

// Cleanup registers a function Main runs after m.Run returns and before
// the leak diff — the place to close package-level cached fixtures
// (shared httptest servers and the like) that individual tests
// deliberately leave open.
func Cleanup(f func()) Option {
	return func(c *config) { c.cleanups = append(c.cleanups, f) }
}

// Main wraps testing.M.Run with a package-wide leak guard: run the
// tests, and if they passed, fail the package when goroutines spawned
// during the run are still alive after the settle deadline.
func Main(m *testing.M, opts ...Option) {
	// The pre-run snapshot is taken for symmetry and debuggability; the
	// benign filter is what actually classifies survivors, so goroutines
	// alive before the run and still alive after (runtime workers) are
	// excluded either way.
	before := idSet(Snapshot())
	code := m.Run()
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	for _, f := range cfg.cleanups {
		f()
	}
	if code == 0 {
		if leaked := settle(before, maxWait); len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutine(s) leaked by this package's tests:\n\n", len(leaked))
			for _, g := range leaked {
				fmt.Fprintf(os.Stderr, "%s\n\n", g.Stack)
			}
			code = 1
		}
	}
	os.Exit(code)
}

// Check installs a per-test leak guard: the diff runs in t.Cleanup and
// fails this test — with the leaked stacks — rather than the package.
func Check(t testing.TB) {
	before := idSet(Snapshot())
	t.Cleanup(func() {
		if t.Failed() {
			return // don't pile a leak report onto an already-failing test
		}
		if leaked := settle(before, maxWait); len(leaked) > 0 {
			for _, g := range leaked {
				t.Errorf("leakcheck: leaked goroutine [%s]:\n%s", g.State, g.Stack)
			}
		}
	})
}

// settle diffs current goroutines against the before set, retrying with
// backoff until the diff is empty or wait has passed. Slow teardown
// settles out; a blocked goroutine survives and is returned.
func settle(before map[int]bool, wait time.Duration) []Goroutine {
	deadline := time.Now().Add(wait)
	backoff := time.Millisecond
	for {
		leaked := diff(before)
		if len(leaked) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(backoff)
		if backoff < 100*time.Millisecond {
			backoff *= 2
		}
	}
}

// diff returns the non-benign goroutines alive now that were not alive
// before.
func diff(before map[int]bool) []Goroutine {
	var leaked []Goroutine
	for _, g := range Snapshot() {
		if before[g.ID] || isBenign(g) {
			continue
		}
		leaked = append(leaked, g)
	}
	sort.Slice(leaked, func(i, j int) bool { return leaked[i].ID < leaked[j].ID })
	return leaked
}

// isBenign reports whether the goroutine matches the benign list.
func isBenign(g Goroutine) bool {
	for _, s := range benign {
		if strings.Contains(g.Stack, s) {
			return true
		}
	}
	return false
}

// Snapshot parses runtime.Stack(buf, true) into one Goroutine per
// entry, excluding the calling goroutine itself.
func Snapshot() []Goroutine {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	self := currentID()
	var out []Goroutine
	for _, chunk := range strings.Split(string(buf), "\n\n") {
		g, ok := parseGoroutine(chunk)
		if !ok || g.ID == self {
			continue
		}
		out = append(out, g)
	}
	return out
}

// currentID parses this goroutine's ID from its own single-goroutine
// stack header.
func currentID() int {
	buf := make([]byte, 4096)
	n := runtime.Stack(buf, false)
	g, ok := parseGoroutine(string(buf[:n]))
	if !ok {
		return -1
	}
	return g.ID
}

// parseGoroutine reads one "goroutine N [state]:" chunk.
func parseGoroutine(chunk string) (Goroutine, bool) {
	chunk = strings.TrimSpace(chunk)
	if chunk == "" {
		return Goroutine{}, false
	}
	header, _, _ := strings.Cut(chunk, "\n")
	rest, ok := strings.CutPrefix(header, "goroutine ")
	if !ok {
		return Goroutine{}, false
	}
	idStr, stateStr, ok := strings.Cut(rest, " [")
	if !ok {
		return Goroutine{}, false
	}
	var id int
	if _, err := fmt.Sscanf(idStr, "%d", &id); err != nil {
		return Goroutine{}, false
	}
	state := strings.TrimSuffix(strings.TrimSuffix(stateStr, ":"), "]")
	// Strip the blocking duration ("chan receive, 3 minutes").
	if i := strings.Index(state, ","); i >= 0 {
		state = state[:i]
	}
	return Goroutine{ID: id, State: state, Stack: chunk}, true
}

// idSet indexes goroutines by ID.
func idSet(gs []Goroutine) map[int]bool {
	out := make(map[int]bool, len(gs))
	for _, g := range gs {
		out[g.ID] = true
	}
	return out
}
