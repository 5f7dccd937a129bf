package dump

import (
	"fmt"
	"io"
	"sort"

	"wiclean/internal/action"
	"wiclean/internal/taxonomy"
	"wiclean/internal/wikitext"
)

// History holds extracted per-entity revision actions, sorted by time. It
// is WiClean's stand-in for "the revision histories distributed across all
// Wikipedia entities" (§4): the miner pulls action sets out of it entity by
// entity, window by window, which is what makes the incremental graph
// construction possible.
type History struct {
	reg      *taxonomy.Registry
	byEntity map[taxonomy.EntityID][]action.Action

	// Extraction statistics (the preprocessing cost of Figure 4).
	RevisionsParsed int
	LinksSkipped    int // links to titles outside the entity universe
}

// NewHistory returns an empty history over the registry.
func NewHistory(reg *taxonomy.Registry) *History {
	return &History{reg: reg, byEntity: map[taxonomy.EntityID][]action.Action{}}
}

// Registry returns the entity registry.
func (h *History) Registry() *taxonomy.Registry { return h.reg }

// AddActions ingests already-extracted actions (e.g. from a preprocessed
// action log). Actions are bucketed by their source entity, since a
// Wikipedia edit always appears in the revision history of the page whose
// outgoing links it changes.
func (h *History) AddActions(as ...action.Action) {
	for _, a := range as {
		h.byEntity[a.Edge.Src] = append(h.byEntity[a.Edge.Src], a)
	}
	for _, a := range as {
		action.SortByTime(h.byEntity[a.Edge.Src])
	}
}

// IngestRevisions parses an article's chronological revision texts and
// extracts link actions by diffing consecutive revisions (the first
// revision diffs against the empty article). Links to titles not present
// in the registry are skipped and counted — in the real system those are
// red links or pages outside the crawled universe.
func (h *History) IngestRevisions(revs []Revision) error {
	// Group by entity, preserving order within each.
	byName := map[string][]Revision{}
	var names []string
	for _, r := range revs {
		if _, ok := byName[r.Entity]; !ok {
			names = append(names, r.Entity)
		}
		byName[r.Entity] = append(byName[r.Entity], r)
	}
	for _, name := range names {
		id, ok := h.reg.Lookup(name)
		if !ok {
			return fmt.Errorf("dump: revision for unknown entity %q", name)
		}
		seq := byName[name]
		sort.SliceStable(seq, func(i, j int) bool { return seq[i].T < seq[j].T })
		prev := ""
		for _, rev := range seq {
			h.RevisionsParsed++
			d := wikitext.Diff(prev, rev.Text)
			for _, l := range d.Added {
				h.appendLink(id, action.Add, l, rev.T)
			}
			for _, l := range d.Removed {
				h.appendLink(id, action.Remove, l, rev.T)
			}
			prev = rev.Text
		}
		action.SortByTime(h.byEntity[id])
	}
	return nil
}

func (h *History) appendLink(src taxonomy.EntityID, op action.Op, l wikitext.Link, t action.Time) {
	dst, ok := h.reg.Lookup(l.Target)
	if !ok {
		h.LinksSkipped++
		return
	}
	h.byEntity[src] = append(h.byEntity[src], action.Action{
		Op:   op,
		Edge: action.Edge{Src: src, Label: action.Label(l.Relation), Dst: dst},
		T:    t,
	})
}

// IngestRecords loads a preprocessed action log, skipping records that
// reference unknown entities and returning how many were skipped.
func (h *History) IngestRecords(recs []ActionRecord) (skipped int) {
	for _, rec := range recs {
		a, err := ActionOf(rec, h.reg)
		if err != nil {
			skipped++
			continue
		}
		h.byEntity[a.Edge.Src] = append(h.byEntity[a.Edge.Src], a)
	}
	for id := range h.byEntity {
		action.SortByTime(h.byEntity[id])
	}
	return skipped
}

// ScanSpan streams an action log and returns what IngestRecords followed
// by Span gives, without materializing the log: the window covering every
// record ActionOf resolves against reg, and how many records resolve.
// Like IngestRecords it skips the records naming an entity outside reg,
// so they never stretch the span. The lazy sources learn the revision
// span of a log they only ever fetch from this way.
func ScanSpan(r io.Reader, reg *taxonomy.Registry) (w action.Window, n int, err error) {
	err = DecodeActions(r, func(rec ActionRecord) error {
		if a, err := ActionOf(rec, reg); err == nil {
			w = cover(w, n, a.T)
			n++
		}
		return nil
	})
	if err != nil {
		return action.Window{}, 0, err
	}
	return w, n, nil
}

// ActionsOf returns the actions recorded for the given entities within the
// window, merged and sorted by time. This is the revision-history access
// path of reduced_and_abstract_actions (Algorithm 1, line 1).
func (h *History) ActionsOf(ids []taxonomy.EntityID, w action.Window) []action.Action {
	var out []action.Action
	for _, id := range ids {
		for _, a := range h.byEntity[id] {
			if w.Contains(a.T) {
				out = append(out, a)
			}
		}
	}
	action.SortByTime(out)
	return out
}

// AllActions returns every recorded action within the window, across all
// entities — the "materialize the full edits graph" input that the
// non-incremental mining variants require.
func (h *History) AllActions(w action.Window) []action.Action {
	var out []action.Action
	for _, as := range h.byEntity {
		for _, a := range as {
			if w.Contains(a.T) {
				out = append(out, a)
			}
		}
	}
	action.SortByTime(out)
	return out
}

// EntitiesWithActions returns the entities that have at least one recorded
// action, sorted.
func (h *History) EntitiesWithActions() []taxonomy.EntityID {
	out := make([]taxonomy.EntityID, 0, len(h.byEntity))
	for id, as := range h.byEntity {
		if len(as) > 0 {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ActionCount returns the total number of recorded actions.
func (h *History) ActionCount() int {
	n := 0
	for _, as := range h.byEntity {
		n += len(as)
	}
	return n
}

// Span returns the window covering every recorded action, or a zero window
// when the history is empty.
func (h *History) Span() action.Window {
	var w action.Window
	n := 0
	for _, as := range h.byEntity {
		for _, a := range as {
			w = cover(w, n, a.T)
			n++
		}
	}
	return w
}

// cover widens w, the window covering n earlier actions, to cover t. End-1
// is the latest time so far even when End wrapped past the int64 limit,
// so the result does not depend on the order the times come in.
func cover(w action.Window, n int, t action.Time) action.Window {
	if n == 0 {
		return action.Window{Start: t, End: t + 1}
	}
	if t < w.Start {
		w.Start = t
	}
	if t > w.End-1 {
		w.End = t + 1
	}
	return w
}

// Records converts the entire history to serializable action records,
// ordered by time, for writing a preprocessed log.
func (h *History) Records() []ActionRecord {
	all := h.AllActions(h.Span())
	out := make([]ActionRecord, len(all))
	for i, a := range all {
		out[i] = RecordOf(a, h.reg)
	}
	return out
}
