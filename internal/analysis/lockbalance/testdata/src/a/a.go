// Fixture for the lockbalance analyzer: unreleased locks, uncovered
// return paths, kind mismatches, by-value copies, and the shapes that
// must pass — defer, branch-unlock-before-return, closures as separate
// scopes, and the escape hatch.
package a

import "sync"

type guarded struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	data map[string]int
}

func neverReleased(g *guarded) {
	g.mu.Lock() // want `never released in this function`
	g.data["k"] = 1
}

func deferRelease(g *guarded) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.data["k"] = 1
}

// The deferred Unlock names the mutex, not a value: registered before
// the Lock, it still releases it at exit.
func deferBeforeLock(g *guarded, bad bool) int {
	defer g.mu.Unlock()
	g.mu.Lock()
	if bad {
		return 0
	}
	g.data["k"] = 1
	return 1
}

func inlineRelease(g *guarded) {
	g.mu.Lock()
	g.data["k"] = 1
	g.mu.Unlock()
}

func uncoveredReturnPath(g *guarded, bad bool) int {
	g.mu.Lock() // want `not released on the return path at line \d+`
	if bad {
		return 0
	}
	g.mu.Unlock()
	return 1
}

func branchUnlockBeforeReturn(g *guarded, key string) (int, bool) {
	g.mu.Lock()
	if v, ok := g.data[key]; ok {
		g.mu.Unlock()
		return v, true
	}
	g.mu.Unlock()
	return 0, false
}

func deferredClosureRelease(g *guarded) {
	g.mu.Lock()
	defer func() {
		g.data["k"]++
		g.mu.Unlock()
	}()
	g.data["k"] = 1
}

func readKindMismatch(g *guarded) int {
	g.rw.RLock() // want `released with Unlock`
	v := g.data["k"]
	g.rw.Unlock()
	return v
}

func writeKindMismatch(g *guarded) {
	g.rw.Lock() // want `released with RUnlock`
	g.data["k"] = 1
	g.rw.RUnlock()
}

func readProperlyPaired(g *guarded) int {
	g.rw.RLock()
	defer g.rw.RUnlock()
	return g.data["k"]
}

func mixedKindsBothPaired(g *guarded, write bool) {
	if write {
		g.rw.Lock()
		g.data["k"] = 1
		g.rw.Unlock()
		return
	}
	g.rw.RLock()
	_ = g.data["k"]
	g.rw.RUnlock()
}

func closureIsItsOwnScope(g *guarded) func() {
	// The closure both locks and defers the unlock; the enclosing
	// function holds nothing.
	return func() {
		g.mu.Lock()
		defer g.mu.Unlock()
		g.data["k"]++
	}
}

func closureLeakDetected(g *guarded) func() {
	return func() {
		g.mu.Lock() // want `never released in this function`
		g.data["k"]++
	}
}

func allowedHandoff(g *guarded) {
	g.mu.Lock() //wiclean:allow-lockbalance released by the paired finish() helper
	g.data["k"] = 1
}

func bareDirectiveStillFires(g *guarded) {
	g.mu.Lock() //wiclean:allow-lockbalance // want `never released in this function` `needs a reason`
	g.data["k"] = 1
}

func byValueParam(mu sync.Mutex) { // want `sync\.Mutex declared by value in a signature`
	mu.Lock()
	defer mu.Unlock()
}

func byValueWaitGroupParam(wg sync.WaitGroup) { // want `sync\.WaitGroup declared by value in a signature`
	wg.Wait()
}

func pointerParamFine(mu *sync.Mutex) {
	mu.Lock()
	defer mu.Unlock()
}

func byValueArg(g *guarded) {
	takesMutex(g.mu) // want `sync\.Mutex passed by value`
}

func takesMutex(mu sync.Mutex) { // want `sync\.Mutex declared by value in a signature`
	_ = mu
}

func byValueCopy(g *guarded) {
	c := g.mu // want `sync\.Mutex copied by value`
	_ = c
}

func zeroValueInitFine() {
	var mu sync.Mutex // declaration of a fresh zero value is not a copy
	mu.Lock()
	defer mu.Unlock()
}

func pointerCopyFine(g *guarded) {
	p := &g.mu
	p.Lock()
	defer p.Unlock()
}
