package analysis

import (
	"go/ast"
	"go/token"
)

// A ReleaseRule is what one release-path analyzer tracks: which calls
// acquire and release a resource identified by a key K, what hands the
// obligation off, and the messages. CheckReleases supplies the rest.
type ReleaseRule[K comparable] struct {
	// Visit records on s what n acquires or hands off, and returns false
	// to skip n's children. It sees the scope's nodes but not the bodies
	// of nested function literals, which are scopes of their own; deferred
	// is true inside a deferred function literal (defer func() { … }()),
	// whose body runs at the scope's exit.
	Visit func(s *ReleaseScope[K], n ast.Node, deferred bool) bool

	// Release reports the key call releases, if it is a release.
	Release func(call *ast.CallExpr) (K, bool)

	// DeferBindsValue says what a deferred release call (defer f.Close())
	// gives back. Its receiver is evaluated when the defer is registered.
	// When the key names the resource itself, as a mutex's receiver does,
	// the call releases that key at exit wherever it was registered. When
	// the key is a variable, it releases the value the variable held at
	// registration, so it counts only when registered after the
	// acquisition. A release inside a deferred function literal reads its
	// receiver when it runs and counts wherever it was registered either
	// way.
	DeferBindsValue bool

	// Never describes an acquisition of k that no release follows.
	Never func(s *ReleaseScope[K], k K) string

	// Unreleased describes an acquisition of k that the return path at
	// line leaves held.
	Unreleased func(k K, line int) string
}

// A ReleaseScope is one function scope seen by a ReleaseRule.
type ReleaseScope[K comparable] struct {
	acquired  []keyAt[K]
	released  []keyAt[K]
	handedOff map[K]bool
	exempt    []ast.Node
}

// keyAt is one acquisition or release. A deferred release gives back
// at exit whatever its key then holds; a release that binds its value
// when registered is recorded as not deferred, since its position
// decides what it releases.
type keyAt[K comparable] struct {
	key      K
	pos      token.Pos
	deferred bool
}

// Acquire records an acquisition of k at pos.
func (s *ReleaseScope[K]) Acquire(k K, pos token.Pos) {
	s.acquired = append(s.acquired, keyAt[K]{key: k, pos: pos})
}

// HandOff gives k's release to someone else — a callee, the caller, a
// closure — so neither rule applies to it in this scope.
func (s *ReleaseScope[K]) HandOff(k K) { s.handedOff[k] = true }

// Exempt lets the returns inside n leave everything held.
func (s *ReleaseScope[K]) Exempt(n ast.Node) { s.exempt = append(s.exempt, n) }

// Releases reports whether the scope releases k anywhere.
func (s *ReleaseScope[K]) Releases(k K) bool {
	for _, r := range s.released {
		if r.key == k {
			return true
		}
	}
	return false
}

// CheckReleases applies r to every function scope of the pass (see
// FuncBodies) and reports, at each acquisition not handed off, the first
// rule it breaks: some release must follow it or be deferred, and every
// return after it must be covered — by a deferred release registered
// before the return, or by a release between the acquisition and the
// return. Falling off the end of the body is a return too. Releases
// inside a deferred function literal (defer func() { … }()) count as
// deferred; a deferred call counts as deferred unless the rule says it
// binds its value (DeferBindsValue). The check is
// positional, not a control-flow analysis: a lint with an escape hatch,
// not a verifier.
func CheckReleases[K comparable](pass *Pass, r ReleaseRule[K]) {
	pass.FuncBodies(func(body *ast.BlockStmt) {
		s := &ReleaseScope[K]{handedOff: map[K]bool{}}
		var exits []exit
		var walk func(n ast.Node, deferred bool)
		walk = func(n ast.Node, deferred bool) {
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case nil:
					return false
				case *ast.DeferStmt:
					if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
						walk(lit.Body, true)
						return false
					}
					if k, ok := r.Release(n.Call); ok {
						s.released = append(s.released, keyAt[K]{k, n.Pos(), !r.DeferBindsValue})
						return false
					}
				case *ast.CallExpr:
					if k, ok := r.Release(n); ok {
						s.released = append(s.released, keyAt[K]{k, n.Pos(), deferred})
					}
				case *ast.ReturnStmt:
					if !deferred {
						exits = append(exits, exit{n.Pos(), n.End()})
					}
				}
				more := r.Visit(s, n, deferred)
				_, lit := n.(*ast.FuncLit)
				return more && !lit // a nested literal is a scope of its own
			})
		}
		walk(body, false)
		exits = append(exits, exit{body.Rbrace, body.End()})
		for _, a := range s.acquired {
			if s.handedOff[a.key] {
				continue
			}
			if !s.releasedAfter(a) {
				pass.Reportf(a.pos, "%s", r.Never(s, a.key))
				continue
			}
			if e, ok := s.uncovered(a, exits); ok {
				pass.Reportf(a.pos, "%s", r.Unreleased(a.key, pass.Fset.Position(e.at).Line))
			}
		}
	})
}

// releasedAfter reports whether any release of a's key follows it or
// runs at exit.
func (s *ReleaseScope[K]) releasedAfter(a keyAt[K]) bool {
	for _, r := range s.released {
		if r.key == a.key && (r.deferred || r.pos > a.pos) {
			return true
		}
	}
	return false
}

// An exit is a return statement, or the end of the body: where it
// starts, and where it ends. A release covers it if it comes before the
// end, so one inside the return's own expression (return f.Close())
// counts.
type exit struct{ at, end token.Pos }

// uncovered returns the first exit after a, outside every exempt node,
// that no release covers.
func (s *ReleaseScope[K]) uncovered(a keyAt[K], exits []exit) (exit, bool) {
next:
	for _, e := range exits {
		if e.end <= a.pos {
			continue
		}
		for _, n := range s.exempt {
			if e.end >= n.Pos() && e.end <= n.End() {
				continue next
			}
		}
		if !s.covered(a, e.end) {
			return e, true
		}
	}
	return exit{}, false
}

// covered reports whether a release of a's key covers an exit at end.
func (s *ReleaseScope[K]) covered(a keyAt[K], end token.Pos) bool {
	for _, r := range s.released {
		if r.key == a.key && r.pos < end && (r.deferred || r.pos > a.pos) {
			return true
		}
	}
	return false
}
