package assist

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"wiclean/internal/action"
	"wiclean/internal/detect"
	"wiclean/internal/mining"
	"wiclean/internal/obs"
	"wiclean/internal/pattern"
	"wiclean/internal/taxonomy"
)

// KnownPattern is a mined pattern registered with the assistant, with the
// statistical metadata shown to editors.
type KnownPattern struct {
	Pattern   pattern.Pattern
	Frequency float64
	Width     action.Time // window width the pattern was mined at
}

// windowWidth is the width of the pattern's current windows: the width it
// was mined at, or two weeks when that is unknown.
func (kp KnownPattern) windowWidth() action.Time {
	if kp.Width <= 0 {
		return 2 * action.Week
	}
	return kp.Width
}

// Advice is the assistant's response to a live edit: the pattern the edit
// appears to start, the companion edits already present in the current
// window, and the ones still missing (the on-line suggestions of §5).
type Advice struct {
	Pattern   pattern.Pattern
	Frequency float64
	Matched   int // index of the pattern action the edit realizes
	Done      []detect.Suggestion
	Missing   []detect.Suggestion
}

// Format renders the advice with entity names.
func (a Advice) Format(reg *taxonomy.Registry) string {
	var b strings.Builder
	fmt.Fprintf(&b, "pattern (freq %.2f): %s\n", a.Frequency, a.Pattern)
	for _, s := range a.Done {
		fmt.Fprintf(&b, "  done:    %s\n", s.Format(reg))
	}
	for _, s := range a.Missing {
		fmt.Fprintf(&b, "  suggest: %s\n", s.Format(reg))
	}
	return b.String()
}

// actionKey indexes abstract actions by the parts of a live edit that must
// match exactly: the operation, the relation label, and the source
// variable's declared type. A concrete edit realizes such an action iff
// the edit's source entity has the declared type (in the ≤ sense), so
// probing one key per ancestor of the editor's most specific type finds
// every candidate without scanning the pattern list.
type actionKey struct {
	op    action.Op
	label action.Label
	src   taxonomy.Type
}

// candidate references one abstract action of one known pattern.
type candidate struct {
	pat int // index into Assistant.patterns
	act int // index into the pattern's Actions
}

// Assistant matches live edits against known patterns and suggests
// completions.
type Assistant struct {
	store    mining.Store
	patterns []KnownPattern
	index    map[actionKey][]candidate // (op, label, src type) → actions
	maxWidth action.Time               // largest windowWidth of the patterns
	obs      *obs.Registry             // nil-safe metrics sink
}

// NewAssistant returns an assistant over the store with the given mined
// patterns. Construction builds the inverted action index Suggest probes,
// so per-edit lookup cost scales with the editor's type depth and the
// matching candidates, not with the size of the whole pattern model.
func NewAssistant(store mining.Store, patterns []KnownPattern) *Assistant {
	ps := append([]KnownPattern(nil), patterns...)
	sort.SliceStable(ps, func(i, j int) bool { return ps[i].Frequency > ps[j].Frequency })
	index := make(map[actionKey][]candidate)
	var maxWidth action.Time
	for pi, kp := range ps {
		maxWidth = max(maxWidth, kp.windowWidth())
		for ai, abs := range kp.Pattern.Actions {
			key := actionKey{op: abs.Op, label: abs.Label, src: kp.Pattern.Vars[abs.Src]}
			index[key] = append(index[key], candidate{pat: pi, act: ai})
		}
	}
	return &Assistant{store: store, patterns: ps, index: index, maxWidth: maxWidth}
}

// TimeRange returns the edit times Suggest accepts: every time at least
// the largest window width among the patterns away from both int64
// limits. Within that distance of a limit, the width-aligned window
// containing the time would overflow.
func (a *Assistant) TimeRange() (lo, hi action.Time) {
	return math.MinInt64 + a.maxWidth, math.MaxInt64 - a.maxWidth
}

// IndexSize reports the inverted index's dimensions: distinct (op, label,
// source-type) keys and total (pattern, action) entries.
func (a *Assistant) IndexSize() (keys, entries int) {
	for _, cs := range a.index {
		entries += len(cs)
	}
	return len(a.index), entries
}

// WithObs attaches a metrics registry (requests, advices produced,
// suggestion latency, index probes and sizes) and returns the assistant.
// Nil is a safe no-op sink.
func (a *Assistant) WithObs(r *obs.Registry) *Assistant {
	a.obs = r
	keys, entries := a.IndexSize()
	r.Gauge(obs.AssistIndexKeys).Set(float64(keys))
	r.Gauge(obs.AssistIndexEntries).Set(float64(entries))
	return a
}

// Suggest reacts to a live edit at time now: every known pattern containing
// an abstract action the edit realizes yields one Advice, with companion
// edits split into already-done (recorded in the pattern's current window)
// and still-missing. Advices are ordered by pattern frequency.
//
// now must lie in TimeRange(). Outside it the window arithmetic overflows
// into an inverted window, and every companion would read as missing.
// Over a store whose fetches have failed, Suggest returns the failure
// (see mining.FetchFailure) instead of advice: a companion whose history
// was not read would read as missing.
func (a *Assistant) Suggest(edit action.Action, now action.Time) ([]Advice, error) {
	start := time.Now()
	a.obs.Counter(obs.AssistRequests).Inc()
	defer func() {
		a.obs.Histogram(obs.AssistSuggestSeconds, obs.DurationBuckets).
			ObserveDuration(time.Since(start))
	}()
	reg := a.store.Registry()
	tax := reg.Taxonomy()

	// Probe the inverted index once per ancestor of the editing entity's
	// most specific type. Together the probes enumerate exactly the
	// abstract actions whose source variable the edit can bind, without
	// scanning the full pattern list.
	var cands []candidate
	for _, t := range tax.Ancestors(reg.TypeOf(edit.Edge.Src)) {
		a.obs.Counter(obs.AssistIndexProbes).Inc()
		cands = append(cands, a.index[actionKey{op: edit.Op, label: edit.Edge.Label, src: t}]...)
	}
	a.obs.Counter(obs.AssistIndexCandidates).Add(int64(len(cands)))

	// One advice per pattern, on its lowest-index action the edit fully
	// realizes — the same selection the former linear scan made.
	matched := map[int]int{} // pattern index → matched action index
	for _, c := range cands {
		p := a.patterns[c.pat].Pattern
		if !reg.HasType(edit.Edge.Dst, p.Vars[p.Actions[c.act].Dst]) {
			continue
		}
		if cur, ok := matched[c.pat]; !ok || c.act < cur {
			matched[c.pat] = c.act
		}
	}
	order := make([]int, 0, len(matched))
	for pi := range matched {
		order = append(order, pi)
	}
	sort.Ints(order) // patterns are pre-sorted by descending frequency

	var out []Advice
	for _, pi := range order {
		kp := a.patterns[pi]
		p := kp.Pattern
		ai := matched[pi]
		abs := p.Actions[ai]

		// Bind the matched action's variables to the edit's entities.
		binding := make([]taxonomy.EntityID, len(p.Vars))
		for i := range binding {
			binding[i] = taxonomy.NoEntity
		}
		binding[abs.Src] = edit.Edge.Src
		binding[abs.Dst] = edit.Edge.Dst

		// The pattern's current window: the width-aligned window
		// containing now. Go's % truncates toward zero, so a negative now
		// off a boundary steps back one width to floor the start.
		width := kp.windowWidth()
		start := now - now%width
		if start > now {
			start -= width
		}
		win := action.Window{Start: start, End: start + width}

		done, missing := a.companions(p, ai, binding, win)
		out = append(out, Advice{
			Pattern:   p,
			Frequency: kp.Frequency,
			Matched:   ai,
			Done:      done,
			Missing:   missing,
		})
	}
	if err := mining.FetchFailure(a.store); err != nil {
		return nil, err
	}
	a.obs.Counter(obs.AssistAdvices).Add(int64(len(out)))
	return out, nil
}

// companions splits the pattern's other actions into already-recorded and
// missing, instantiated under the binding. Companion actions touching
// unbound variables are extended with bindings discovered along the way
// (an already-done companion can bind more variables for later ones).
func (a *Assistant) companions(p pattern.Pattern, matched int, binding []taxonomy.EntityID, win action.Window) (done, missing []detect.Suggestion) {
	// Sweep repeatedly so bindings discovered from already-done companions
	// propagate to actions that were not instantiable yet. Each sweep
	// handles the actions with at least one bound endpoint; a final pass
	// reports still-uninstantiable actions as missing with both sides open.
	handled := make([]bool, len(p.Actions))
	handled[matched] = true
	for round := 0; round < len(p.Actions); round++ {
		progressed := false
		for ai, abs := range p.Actions {
			if handled[ai] {
				continue
			}
			src, dst := binding[abs.Src], binding[abs.Dst]
			if src == taxonomy.NoEntity && dst == taxonomy.NoEntity {
				continue // not yet instantiable; wait for more bindings
			}
			handled[ai] = true
			progressed = true
			found, other := a.lookup(abs, p, src, dst, win)
			sug := detect.Suggestion{
				Op:      abs.Op,
				Src:     src,
				SrcType: p.Vars[abs.Src],
				Label:   abs.Label,
				Dst:     dst,
				DstType: p.Vars[abs.Dst],
			}
			if found {
				// Propagate any variable the recorded edit binds.
				if src == taxonomy.NoEntity {
					binding[abs.Src] = other
					sug.Src = other
				}
				if dst == taxonomy.NoEntity {
					binding[abs.Dst] = other
					sug.Dst = other
				}
				done = append(done, sug)
			} else {
				missing = append(missing, sug)
			}
		}
		if !progressed {
			break
		}
	}
	for ai, abs := range p.Actions {
		if handled[ai] {
			continue
		}
		missing = append(missing, detect.Suggestion{
			Op:      abs.Op,
			Src:     binding[abs.Src],
			SrcType: p.Vars[abs.Src],
			Label:   abs.Label,
			Dst:     binding[abs.Dst],
			DstType: p.Vars[abs.Dst],
		})
	}
	return done, missing
}

// lookup searches the window for a concrete realization of abs with the
// given (possibly partial) binding. It reads only the histories that can
// hold one: the bound source entity's, or with the source open, those of
// the source variable's entities. Reduction works edge by edge and every
// sort is stable, so reducing just the edges with abs's label (and bound
// target) yields exactly those edges' reduced actions, in the order a
// reduction of the whole window would list them. It returns whether one
// was found and the entity bound to the previously unbound side (if any).
func (a *Assistant) lookup(abs pattern.AbstractAction, p pattern.Pattern, src, dst taxonomy.EntityID, win action.Window) (bool, taxonomy.EntityID) {
	reg := a.store.Registry()
	ids := []taxonomy.EntityID{src}
	if src == taxonomy.NoEntity {
		ids = reg.EntitiesOf(p.Vars[abs.Src])
	}
	var edges []action.Action
	for _, c := range a.store.ActionsOf(ids, win) {
		if c.Edge.Label == abs.Label && (dst == taxonomy.NoEntity || c.Edge.Dst == dst) {
			edges = append(edges, c)
		}
	}
	for _, c := range action.Reduce(edges) {
		// Sources need no type check: an open source reads only the
		// variable's entities, and every bound entity was checked when
		// it was bound (the edit's by Suggest, a target's here).
		if c.Op != abs.Op || !reg.HasType(c.Edge.Dst, p.Vars[abs.Dst]) {
			continue
		}
		other := taxonomy.NoEntity
		if src == taxonomy.NoEntity {
			other = c.Edge.Src
		} else if dst == taxonomy.NoEntity {
			other = c.Edge.Dst
		}
		return true, other
	}
	return false, taxonomy.NoEntity
}
