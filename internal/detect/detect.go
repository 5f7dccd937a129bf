// Package detect implements Algorithm 3 of the paper: identifying partial
// pattern realizations — edits that look like the beginning of a known
// update pattern but were never completed inside the pattern's window — by
// replacing the realization-growing joins with full outer joins and
// selecting null-padded tuples. Each partial realization becomes an error
// signal with concrete correction suggestions and statistical metadata
// (how many editors completed the pattern), which is how WiClean "alerts
// Wikipedia editors on partial edits performed in past windows".
package detect

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"wiclean/internal/action"
	"wiclean/internal/mining"
	"wiclean/internal/obs"
	"wiclean/internal/pattern"
	"wiclean/internal/relational"
	"wiclean/internal/taxonomy"
)

// markerName names the presence column recording whether ordered action i
// matched ("a result table keeping the attributes of original action
// relations is kept to record which missing updates cause null values").
func markerName(i int) string { return fmt.Sprintf("m%d", i) }

// Suggestion is one concrete missing edit completing a partial realization.
// Unassigned variables (the partial edit never bound them) surface as
// NoEntity with the variable's type carried for display.
type Suggestion struct {
	Op      action.Op
	Src     taxonomy.EntityID // NoEntity if the variable is unbound
	SrcType taxonomy.Type
	Label   action.Label
	Dst     taxonomy.EntityID
	DstType taxonomy.Type
}

// Format renders the suggestion with entity names.
func (s Suggestion) Format(reg *taxonomy.Registry) string {
	name := func(id taxonomy.EntityID, t taxonomy.Type) string {
		if id == taxonomy.NoEntity {
			return fmt.Sprintf("<some %s>", t)
		}
		return reg.Name(id)
	}
	return fmt.Sprintf("%s (%s, %s, %s)", s.Op, name(s.Src, s.SrcType), s.Label, name(s.Dst, s.DstType))
}

// PartialEdit is one signaled potential error: a realization row with at
// least one missing action.
type PartialEdit struct {
	// Assignment maps pattern variables to entities; NoEntity marks
	// variables the partial edit never bound.
	Assignment []taxonomy.EntityID

	// Present and Missing index into the pattern's Actions.
	Present []int
	Missing []int

	// Suggestions are the concrete completions for the missing actions.
	Suggestions []Suggestion
}

// Subject returns the bound source entity of the partial edit, or NoEntity.
func (pe PartialEdit) Subject() taxonomy.EntityID {
	if len(pe.Assignment) == 0 {
		return taxonomy.NoEntity
	}
	return pe.Assignment[pattern.SourceVar]
}

// Report is the Algorithm 3 output for one (pattern, window) pair, with the
// statistical metadata WiClean shows editors alongside each alert.
type Report struct {
	Pattern pattern.Pattern
	Window  action.Window

	Partials []PartialEdit
	// FullCount is how many complete realizations the window holds — the
	// "examples of other full patterns" evidence.
	FullCount int
	// Examples holds up to a few complete realization assignments.
	Examples [][]taxonomy.EntityID
}

// CompletionRate returns FullCount / (FullCount + |Partials|): the share of
// started realizations that were completed, a confidence proxy for alerts.
func (r *Report) CompletionRate() float64 {
	total := r.FullCount + len(r.Partials)
	if total == 0 {
		return 0
	}
	return float64(r.FullCount) / float64(total)
}

// Format renders the report with entity names.
func (r *Report) Format(reg *taxonomy.Registry) string {
	var b strings.Builder
	fmt.Fprintf(&b, "pattern %s\nwindow %v: %d complete, %d partial (completion %.0f%%)\n",
		r.Pattern, r.Window, r.FullCount, len(r.Partials), 100*r.CompletionRate())
	for i, pe := range r.Partials {
		if i >= 25 {
			fmt.Fprintf(&b, "  ... (%d partial edits total)\n", len(r.Partials))
			break
		}
		var names []string
		for v, id := range pe.Assignment {
			if id != taxonomy.NoEntity {
				names = append(names, fmt.Sprintf("%s=%s", pattern.VarName(pattern.VarID(v)), reg.Name(id)))
			}
		}
		fmt.Fprintf(&b, "  partial [%s], missing:\n", strings.Join(names, ", "))
		for _, s := range pe.Suggestions {
			fmt.Fprintf(&b, "    suggest %s\n", s.Format(reg))
		}
	}
	return b.String()
}

// Detector runs partial-update detection against a revision store.
type Detector struct {
	store  mining.Store
	engine relational.Engine
	obs    *obs.Registry // nil-safe metrics sink
}

// New returns a Detector over the store.
func New(store mining.Store) *Detector {
	return &Detector{store: store}
}

// WithObs attaches a metrics registry (candidates scanned, partial edits
// signaled, detection latency) and returns the detector. Nil is a safe
// no-op sink.
func (d *Detector) WithObs(r *obs.Registry) *Detector {
	d.obs = r
	return d
}

// orderActions returns the pattern's action indices in a traversal order
// where every action's source variable is already bound when the action is
// joined (line 3 of Algorithm 3: "edges in the pattern's graph, in some
// traversal order"). Such an order exists exactly when the pattern is
// connected from its source variable.
func orderActions(p pattern.Pattern) ([]int, error) {
	seen := make([]bool, len(p.Vars))
	seen[pattern.SourceVar] = true
	used := make([]bool, len(p.Actions))
	order := make([]int, 0, len(p.Actions))
	for len(order) < len(p.Actions) {
		progressed := false
		for i, a := range p.Actions {
			if used[i] || !seen[a.Src] {
				continue
			}
			used[i] = true
			seen[a.Dst] = true
			order = append(order, i)
			progressed = true
		}
		if !progressed {
			return nil, fmt.Errorf("detect: pattern is not connected from its source: %s", p)
		}
	}
	return order, nil
}

// actionTable builds realizations[w][a_i]: the (src, dst, marker) rows of
// reduced actions in the window matching the abstract action's op, label
// and variable types.
func (d *Detector) actionTable(p pattern.Pattern, ai int, reduced []action.Action, marker int) *relational.Table {
	reg := d.store.Registry()
	a := p.Actions[ai]
	tbl := relational.NewTable(pattern.VarName(a.Src), pattern.VarName(a.Dst), markerName(marker))
	for _, c := range reduced {
		if c.Op != a.Op || c.Edge.Label != a.Label {
			continue
		}
		if c.Edge.Src == c.Edge.Dst {
			continue
		}
		if !reg.HasType(c.Edge.Src, p.Vars[a.Src]) || !reg.HasType(c.Edge.Dst, p.Vars[a.Dst]) {
			continue
		}
		tbl.Append(relational.Row{relational.Value(c.Edge.Src), relational.Value(c.Edge.Dst), 1})
	}
	return tbl.Dedup()
}

// FindPartials runs Algorithm 3 for one pattern and window. Over a store
// whose fetches have failed it returns the failure (see
// mining.FetchFailure), not a report: with histories missing, a partial
// edit would read as complete or a complete one as partial.
func (d *Detector) FindPartials(p pattern.Pattern, w action.Window) (*Report, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	d.obs.Counter(obs.DetectRuns).Inc()
	order, err := orderActions(p)
	if err != nil {
		return nil, err
	}
	reg := d.store.Registry()

	// Lines 1–2: the entity types of p and their reduced window actions.
	var ids []taxonomy.EntityID
	seen := map[taxonomy.EntityID]bool{}
	for _, t := range p.TypeSet() {
		for _, id := range reg.EntitiesOf(t) {
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
	}
	reduced := action.Reduce(d.store.ActionsOf(ids, w))
	if err := mining.FetchFailure(d.store); err != nil {
		return nil, err
	}

	// Lines 5–9: iterative full outer joins.
	all := d.actionTable(p, order[0], reduced, 0)
	bound := map[pattern.VarID]bool{
		p.Actions[order[0]].Src: true,
		p.Actions[order[0]].Dst: true,
	}
	for step := 1; step < len(order); step++ {
		ai := order[step]
		a := p.Actions[ai]
		r := d.actionTable(p, ai, reduced, step)

		spec := relational.JoinSpec{}
		// Source is always bound by the traversal order.
		spec.EqL = append(spec.EqL, all.ColumnIndex(pattern.VarName(a.Src)))
		spec.EqR = append(spec.EqR, 0)
		dstBound := bound[a.Dst]
		if dstBound {
			spec.EqL = append(spec.EqL, all.ColumnIndex(pattern.VarName(a.Dst)))
			spec.EqR = append(spec.EqR, 1)
		} else {
			// Fresh variable: distinct from every comparable bound column.
			tax := reg.Taxonomy()
			for v := range bound {
				if tax.Comparable(p.Vars[v], p.Vars[a.Dst]) {
					spec.NeqL = append(spec.NeqL, all.ColumnIndex(pattern.VarName(v)))
					spec.NeqR = append(spec.NeqR, 1)
				}
			}
		}
		for i := 0; i < all.Arity(); i++ {
			spec.LOut = append(spec.LOut, i)
		}
		if dstBound {
			spec.ROut = []int{2}
		} else {
			spec.ROut = []int{1, 2}
		}
		out := d.engine.FullOuterJoin(all, r, spec)
		if !dstBound {
			out.SetColumnName(out.Arity()-2, pattern.VarName(a.Dst))
			bound[a.Dst] = true
		}
		out.SetColumnName(out.Arity()-1, markerName(step))
		all = out.Dedup()
	}

	// Lines 10–11: tuples with nulls are the partial realizations.
	rep := d.report(p, w, order, all)
	d.obs.Counter(obs.DetectRowsScanned).Add(int64(all.Len()))
	d.obs.Counter(obs.DetectPartials).Add(int64(len(rep.Partials)))
	d.obs.Counter(obs.DetectFull).Add(int64(rep.FullCount))
	d.obs.Histogram(obs.DetectSeconds, obs.DurationBuckets).ObserveDuration(time.Since(start))
	return rep, nil
}

// report reads the final outer-join table column by column: each row is
// a full realization when every marker is set, a partial edit otherwise.
// The partial edits are ordered by the text of their assignments.
func (d *Detector) report(p pattern.Pattern, w action.Window, order []int, all *relational.Table) *Report {
	rep := &Report{Pattern: p, Window: w}
	varCols := make([][]relational.Value, len(p.Vars))
	for v := range p.Vars {
		if c := all.ColumnIndex(pattern.VarName(pattern.VarID(v))); c >= 0 {
			varCols[v] = all.Col(c)
		}
	}
	markerCols := make([][]relational.Value, len(order))
	for i := range order {
		if c := all.ColumnIndex(markerName(i)); c >= 0 {
			markerCols[i] = all.Col(c)
		}
	}
	var keys []string
	for row := 0; row < all.Len(); row++ {
		assignment := make([]taxonomy.EntityID, len(p.Vars))
		for v, col := range varCols {
			if col == nil || col[row].IsNull() {
				assignment[v] = taxonomy.NoEntity
			} else {
				assignment[v] = taxonomy.EntityID(col[row])
			}
		}
		var present, missing []int
		for i, col := range markerCols {
			if col != nil && !col[row].IsNull() {
				present = append(present, order[i])
			} else {
				missing = append(missing, order[i])
			}
		}
		if len(missing) == 0 {
			rep.FullCount++
			if len(rep.Examples) < 3 {
				rep.Examples = append(rep.Examples, assignment)
			}
			continue
		}
		pe := PartialEdit{Assignment: assignment, Present: present, Missing: missing}
		for _, ai := range missing {
			a := p.Actions[ai]
			pe.Suggestions = append(pe.Suggestions, Suggestion{
				Op:      a.Op,
				Src:     assignment[a.Src],
				SrcType: p.Vars[a.Src],
				Label:   a.Label,
				Dst:     assignment[a.Dst],
				DstType: p.Vars[a.Dst],
			})
		}
		rep.Partials = append(rep.Partials, pe)
		keys = append(keys, fmt.Sprint(assignment))
	}
	sort.Stable(byAssignment{keys, rep.Partials})
	return rep
}

// byAssignment sorts partial edits on keys, their assignments formatted
// once each.
type byAssignment struct {
	keys []string
	pes  []PartialEdit
}

func (b byAssignment) Len() int           { return len(b.keys) }
func (b byAssignment) Less(i, j int) bool { return b.keys[i] < b.keys[j] }
func (b byAssignment) Swap(i, j int) {
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
	b.pes[i], b.pes[j] = b.pes[j], b.pes[i]
}
