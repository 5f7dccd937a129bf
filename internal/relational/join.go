package relational

import "fmt"

// JoinSpec describes an equijoin with residual inequality predicates, the
// exact query shape Algorithm 1 issues to grow a pattern realization table
// with one more abstract action:
//
//   - EqL[i] == EqR[i] pairs are the "glued" pattern/action variables
//     (equijoin on the corresponding attributes);
//   - NeqL[i] != NeqR[i] pairs enforce that a freshly introduced variable is
//     assigned a different entity than every existing same-type variable
//     ("we require inequality to all same type attributes", §4.2);
//   - LOut/ROut select the output columns ("project a single column for each
//     pattern attribute").
//
// Null semantics: an equality involving a null never matches (SQL), so rows
// with null join keys fall to the unmatched side of outer joins. An
// inequality involving a null is satisfied — a missing assignment cannot
// collide with anything, which is what partial-realization detection needs.
type JoinSpec struct {
	EqL, EqR   []int
	NeqL, NeqR []int
	LOut, ROut []int
}

// Validate checks the spec against the two input schemas.
func (s JoinSpec) Validate(l, r *Table) error {
	if len(s.EqL) != len(s.EqR) {
		return fmt.Errorf("relational: EqL/EqR length mismatch")
	}
	if len(s.NeqL) != len(s.NeqR) {
		return fmt.Errorf("relational: NeqL/NeqR length mismatch")
	}
	check := func(idx []int, arity int, what string) error {
		for _, i := range idx {
			if i < 0 || i >= arity {
				return fmt.Errorf("relational: %s column %d out of range (arity %d)", what, i, arity)
			}
		}
		return nil
	}
	if err := check(s.EqL, l.Arity(), "EqL"); err != nil {
		return err
	}
	if err := check(s.NeqL, l.Arity(), "NeqL"); err != nil {
		return err
	}
	if err := check(s.LOut, l.Arity(), "LOut"); err != nil {
		return err
	}
	if err := check(s.EqR, r.Arity(), "EqR"); err != nil {
		return err
	}
	if err := check(s.NeqR, r.Arity(), "NeqR"); err != nil {
		return err
	}
	return check(s.ROut, r.Arity(), "ROut")
}

// neqOKAt evaluates the residual inequality predicates on row li of l and
// row ri of r, touching only the predicate columns. The spec comes by
// pointer: the join loops call it once per candidate pair.
func (s *JoinSpec) neqOKAt(l, r *Table, li, ri int) bool {
	for k := range s.NeqL {
		lv, rv := l.data[s.NeqL[k]][li], r.data[s.NeqR[k]][ri]
		if !lv.IsNull() && !rv.IsNull() && lv == rv {
			return false
		}
	}
	return true
}

// eqOKAt evaluates the equality predicates on row li of l and row ri of r.
func (s *JoinSpec) eqOKAt(l, r *Table, li, ri int) bool {
	for k := range s.EqL {
		lv, rv := l.data[s.EqL[k]][li], r.data[s.EqR[k]][ri]
		if lv.IsNull() || rv.IsNull() || lv != rv {
			return false
		}
	}
	return true
}

// Strategy selects the physical join implementation.
type Strategy int

// Execution strategies. HashStrategy, the zero value, is WC's optimized
// engine path: an inner join probes an index over the right table's first
// equality column. NestedLoop is the "conventional main memory nested
// loop" the PM−join ablation of §6.1 falls back to. Both emit the same
// rows in the same order.
const (
	HashStrategy Strategy = iota
	NestedLoop
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case HashStrategy:
		return "hash"
	case NestedLoop:
		return "nested-loop"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Stats accumulates the work an Engine performed, for the running-time
// ablations (rows compared is the honest cost proxy across strategies).
// Every field is a pure function of the joined tables, specs and strategy
// — never of wall clock, worker count or arena state — so per-worker Stats
// merge to the same totals no matter how the joins were scheduled. (Arena
// reuse is scheduling-dependent and therefore lives in ArenaMetrics, not
// here.)
type Stats struct {
	Joins       int
	OuterJoins  int
	RowsOut     int64
	Comparisons int64
}

// Add accumulates o into s. The parallel miner sums its workers' engine
// totals with it, so EVERY Stats field must appear here — dropping one
// silently undercounts that field (stats_accounting_test.go checks every
// field by reflection).
func (s *Stats) Add(o Stats) {
	s.Joins += o.Joins
	s.OuterJoins += o.OuterJoins
	s.RowsOut += o.RowsOut
	s.Comparisons += o.Comparisons
}

// Engine executes joins with a chosen strategy and records Stats, its only
// accounting. The zero value is an index-join engine. An Engine is NOT safe
// for concurrent use — Stats and Arena updates are plain writes; give each
// worker its own Engine and sum their Stats afterwards instead of sharing
// one behind a lock.
type Engine struct {
	Strategy Strategy

	// Arena, when set, recycles join-output tables (see Arena).
	Arena *Arena

	Stats Stats

	w colWriter // output-writer scratch, reused by every join
}

// Join computes the inner join of l and r under spec. It panics on an
// invalid spec (programming error). Under HashStrategy it indexes r on its
// first equality column and runs IndexJoin; under NestedLoop, or without
// an equality, it compares every pair of rows. Either way the output lists
// the matches l-major, with r's rows ascending.
func (e *Engine) Join(l, r *Table, spec JoinSpec) *Table {
	if err := spec.Validate(l, r); err != nil {
		panic(err)
	}
	if e.Strategy == NestedLoop || len(spec.EqL) == 0 {
		return e.nestedLoopJoin(l, r, &spec)
	}
	ix := NewIndex(spec.EqR[0])
	ix.Update(r)
	return e.IndexJoin(l, r, ix, &spec)
}

// colWriter accumulates join output column-wise: emit(li, ri) gathers the
// projected cells of l row li and r row ri straight from the source
// columns — no per-row Row allocation anywhere on the hot path. Each
// Engine owns one writer and reuses its scratch on every join.
type colWriter struct {
	lSrc, rSrc [][]Value // source columns in output order
	t          *Table    // the output, named by the join's projection
	out        [][]Value // t's columns, shared with t.data
	n          int
}

// writer readies the engine's writer for one join of l and r under spec:
// the output table comes from the arena (fresh without one) and takes its
// column names from the projected inputs.
func (e *Engine) writer(l, r *Table, spec *JoinSpec) *colWriter {
	w := &e.w
	w.t = e.Arena.table(len(spec.LOut) + len(spec.ROut))
	w.out, w.n = w.t.data, 0
	w.lSrc, w.rSrc = w.lSrc[:0], w.rSrc[:0]
	for _, c := range spec.LOut {
		w.lSrc = append(w.lSrc, l.data[c])
		w.t.cols = append(w.t.cols, l.cols[c])
	}
	for _, c := range spec.ROut {
		w.rSrc = append(w.rSrc, r.data[c])
		w.t.cols = append(w.t.cols, r.cols[c])
	}
	return w
}

func (w *colWriter) emit(li, ri int) {
	k := 0
	for _, src := range w.lSrc {
		w.out[k] = append(w.out[k], src[li])
		k++
	}
	for _, src := range w.rSrc {
		w.out[k] = append(w.out[k], src[ri])
		k++
	}
	w.n++
}

// pad writes the row of an outer join's unmatched row i: each output
// column takes row i of its source column in lSrc, then rSrc, and is
// null where the source is nil.
func (w *colWriter) pad(lSrc, rSrc [][]Value, i int) {
	k := 0
	for _, srcs := range [2][][]Value{lSrc, rSrc} {
		for _, src := range srcs {
			v := Null
			if src != nil {
				v = src[i]
			}
			w.out[k] = append(w.out[k], v)
			k++
		}
	}
	w.n++
}

// finish returns the writer's finished output and counts its rows.
func (e *Engine) finish() *Table {
	w := &e.w
	t := w.t
	t.n = w.n
	e.Stats.RowsOut += int64(w.n)
	w.t, w.out = nil, nil
	return t
}

func (e *Engine) nestedLoopJoin(l, r *Table, spec *JoinSpec) *Table {
	e.Stats.Joins++
	w := e.writer(l, r, spec)
	for li := 0; li < l.n; li++ {
		for ri := 0; ri < r.n; ri++ {
			e.Stats.Comparisons++
			if spec.eqOKAt(l, r, li, ri) && spec.neqOKAt(l, r, li, ri) {
				w.emit(li, ri)
			}
		}
	}
	return e.finish()
}

// FullOuterJoin computes the full outer join of l and r under spec — the
// operator Algorithm 3 substitutes for the realization-growing join so that
// partial pattern occurrences surface as null-padded tuples (§5):
//
//   - matching (lr, rr) pairs are emitted as in Join, l-major with r's
//     rows ascending;
//   - then each l row with no match, with r's output columns null-padded,
//     except columns that are join keys shared with l, which are coalesced
//     from l;
//   - then each r row with no match, symmetrically.
//
// The coalescing of shared key columns keeps every known variable
// assignment visible in the output so the detector can name exactly which
// action is missing. The candidate pairs are Join's: under HashStrategy
// those an index over r's first equality column returns, otherwise every
// pair. Each counts one comparison.
func (e *Engine) FullOuterJoin(l, r *Table, spec JoinSpec) *Table {
	if err := spec.Validate(l, r); err != nil {
		panic(err)
	}
	e.Stats.OuterJoins++
	w := e.writer(l, r, &spec)
	lMatched := make([]bool, l.n)
	rMatched := make([]bool, r.n)
	match := func(li, ri int) {
		e.Stats.Comparisons++
		if spec.eqOKAt(l, r, li, ri) && spec.neqOKAt(l, r, li, ri) {
			lMatched[li], rMatched[ri] = true, true
			w.emit(li, ri)
		}
	}
	if e.Strategy == NestedLoop || len(spec.EqL) == 0 {
		for li := 0; li < l.n; li++ {
			for ri := 0; ri < r.n; ri++ {
				match(li, ri)
			}
		}
	} else {
		ix := NewIndex(spec.EqR[0])
		ix.Update(r)
		for li, v := range l.data[spec.EqL[0]] {
			if !v.IsNull() {
				for _, ri := range ix.rows[v] {
					match(li, int(ri))
				}
			}
		}
	}
	rPad := coalesced(spec.ROut, spec.EqR, spec.EqL, l)
	for li, m := range lMatched {
		if !m {
			w.pad(w.lSrc, rPad, li)
		}
	}
	lPad := coalesced(spec.LOut, spec.EqL, spec.EqR, r)
	for ri, m := range rMatched {
		if !m {
			w.pad(lPad, w.rSrc, ri)
		}
	}
	return e.finish()
}

// coalesced returns, for each of one side's output columns out, the column
// of the other side that fills it on a null-padded row: where the column
// is a join key (keys[k] equal to it, the last such k), the other side's
// key column otherKeys[k]; elsewhere nil, for null.
func coalesced(out, keys, otherKeys []int, other *Table) [][]Value {
	src := make([][]Value, len(out))
	for i, c := range out {
		for k, key := range keys {
			if key == c {
				src[i] = other.data[otherKeys[k]]
			}
		}
	}
	return src
}
