// Package action models the revision-history edit actions of the paper:
// timestamped additions and removals of labeled links between entities
// (Figure 1), inverse actions, and the reduction of action sets to their net
// graph effect (§3, "(Reduced) set of actions").
package action

import (
	"cmp"
	"fmt"
	"slices"

	"wiclean/internal/taxonomy"
)

// Op is the edit operation: adding or removing a link.
type Op int8

// The two revision operations of the paper.
const (
	Add    Op = +1 // "+" row in Figure 1
	Remove Op = -1 // "−" row in Figure 1
)

// String renders the Figure-1 "+/−" column.
func (o Op) String() string {
	switch o {
	case Add:
		return "+"
	case Remove:
		return "-"
	}
	return "?"
}

// Inverse returns the opposite operation.
func (o Op) Inverse() Op { return -o }

// ParseOp reads the notation String writes: "+" is Add and "-" is Remove.
// Any other text is an error that names it.
func ParseOp(s string) (Op, error) {
	switch s {
	case "+":
		return Add, nil
	case "-":
		return Remove, nil
	}
	return 0, fmt.Errorf("invalid op %q: want \"+\" or \"-\"", s)
}

// Label names a link relation, e.g. "current_club" or "squad".
type Label string

// Time is a revision timestamp in seconds since the epoch. An integer type
// keeps window arithmetic exact and the dump format compact.
type Time int64

// Common durations in Time units.
const (
	Hour Time = 3600
	Day  Time = 24 * Hour
	Week Time = 7 * Day
	Year Time = 365 * Day
)

// Edge is a directed labeled link from Src to Dst. In Wikipedia terms Src is
// the article whose revision history records the edit (edits always touch
// outgoing links of the page being edited).
type Edge struct {
	Src   taxonomy.EntityID
	Label Label
	Dst   taxonomy.EntityID
}

// Action is one revision-history row: op applied to edge at time T.
type Action struct {
	Op   Op
	Edge Edge
	T    Time
}

// Source returns the paper's source(a).
func (a Action) Source() taxonomy.EntityID { return a.Edge.Src }

// Target returns the paper's target(a).
func (a Action) Target() taxonomy.EntityID { return a.Edge.Dst }

// Inverse returns the action that undoes a (same edge, opposite op). The
// returned action keeps a's timestamp; callers that need ordering set it.
func (a Action) Inverse() Action {
	a.Op = a.Op.Inverse()
	return a
}

// IsInverseOf reports whether a undoes b: same edge, opposite operation.
func (a Action) IsInverseOf(b Action) bool {
	return a.Edge == b.Edge && a.Op == b.Op.Inverse()
}

// String renders the action as a Figure-1-style row with raw IDs.
func (a Action) String() string {
	return fmt.Sprintf("%s (%d, %s, %d) @%d", a.Op, a.Edge.Src, a.Edge.Label, a.Edge.Dst, a.T)
}

// Format renders the action with entity names resolved via reg.
func (a Action) Format(reg *taxonomy.Registry) string {
	return fmt.Sprintf("%s (%s, %s, %s)", a.Op, reg.Name(a.Edge.Src), a.Edge.Label, reg.Name(a.Edge.Dst))
}

// Window is a half-open time frame [Start, End).
type Window struct {
	Start Time
	End   Time
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t Time) bool { return t >= w.Start && t < w.End }

// Width returns End − Start.
func (w Window) Width() Time { return w.End - w.Start }

// Overlaps reports whether two windows share any instant.
func (w Window) Overlaps(o Window) bool { return w.Start < o.End && o.Start < w.End }

// String renders the window as [start, end).
func (w Window) String() string { return fmt.Sprintf("[%d, %d)", w.Start, w.End) }

// Split partitions w into consecutive non-overlapping sub-windows of the
// given width (the paper's timeline split in Algorithm 2, line 7). The last
// window is truncated at w.End. A non-positive width yields the whole
// window unsplit.
func (w Window) Split(width Time) []Window {
	if width <= 0 || width >= w.Width() {
		return []Window{w}
	}
	var out []Window
	for s := w.Start; s < w.End; s += width {
		e := s + width
		if e > w.End {
			e = w.End
		}
		out = append(out, Window{s, e})
	}
	return out
}

// SortByTime orders actions chronologically (stable, so equal timestamps
// keep input order, matching how a revision log is appended).
func SortByTime(as []Action) {
	slices.SortStableFunc(as, func(a, b Action) int { return cmp.Compare(a.T, b.T) })
}

// Filter returns the actions whose timestamps fall inside w, preserving
// order.
func Filter(as []Action, w Window) []Action {
	var out []Action
	for _, a := range as {
		if w.Contains(a.T) {
			out = append(out, a)
		}
	}
	return out
}
