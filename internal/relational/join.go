package relational

import (
	"fmt"
	"time"

	"wiclean/internal/obs"
)

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

func (s JoinSpec) outSchema(l, r *Table) []string {
	cols := make([]string, 0, len(s.LOut)+len(s.ROut))
	for _, i := range s.LOut {
		cols = append(cols, l.cols[i])
	}
	for _, i := range s.ROut {
		cols = append(cols, r.cols[i])
	}
	return cols
}

func (s JoinSpec) emit(lr, rr Row) Row {
	out := make(Row, 0, len(s.LOut)+len(s.ROut))
	for _, i := range s.LOut {
		out = append(out, lr[i])
	}
	for _, i := range s.ROut {
		out = append(out, rr[i])
	}
	return out
}

// neqOK evaluates the residual inequality predicates on materialized rows
// (outer-join path; the inner-join loops use the columnar neqOKAt).
func (s JoinSpec) neqOK(lr, rr Row) bool {
	for k := range s.NeqL {
		lv, rv := lr[s.NeqL[k]], rr[s.NeqR[k]]
		if !lv.IsNull() && !rv.IsNull() && lv == rv {
			return false
		}
	}
	return true
}

// eqOK evaluates the equality predicates directly on materialized rows.
func (s JoinSpec) eqOK(lr, rr Row) bool {
	for k := range s.EqL {
		lv, rv := lr[s.EqL[k]], rr[s.EqR[k]]
		if lv.IsNull() || rv.IsNull() || lv != rv {
			return false
		}
	}
	return true
}

// neqOKAt is neqOK against table storage: row li of l vs row ri of r,
// touching only the predicate columns. The spec comes by pointer: the join
// loops call it once per candidate pair.
func (s *JoinSpec) neqOKAt(l, r *Table, li, ri int) bool {
	for k := range s.NeqL {
		lv, rv := l.data[s.NeqL[k]][li], r.data[s.NeqR[k]][ri]
		if !lv.IsNull() && !rv.IsNull() && lv == rv {
			return false
		}
	}
	return true
}

// eqOKAt is eqOK against table storage.
func (s *JoinSpec) eqOKAt(l, r *Table, li, ri int) bool {
	for k := range s.EqL {
		lv, rv := l.data[s.EqL[k]][li], r.data[s.EqR[k]][ri]
		if lv.IsNull() || rv.IsNull() || lv != rv {
			return false
		}
	}
	return true
}

// hashKeyAt folds the join-key columns idx of t's row into an FNV-1a hash
// (outer-join path). Collisions are possible, so probes must re-verify
// equality; null keys report false (they can never match).
func hashKeyAt(t *Table, row int, idx []int) (uint64, bool) {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, i := range idx {
		v := t.data[i][row]
		if v.IsNull() {
			return 0, false
		}
		u := uint32(v)
		for shift := 0; shift < 32; shift += 8 {
			h ^= uint64(byte(u >> shift))
			h *= prime64
		}
	}
	return h, true
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

// joinSeconds names each strategy's join-latency histogram once, so an
// observed join formats no metric name.
var joinSeconds = [...]string{
	HashStrategy: obs.Labeled(obs.RelationalJoinSeconds, "strategy", HashStrategy.String()),
	NestedLoop:   obs.Labeled(obs.RelationalJoinSeconds, "strategy", NestedLoop.String()),
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

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Joins += o.Joins
	s.OuterJoins += o.OuterJoins
	s.RowsOut += o.RowsOut
	s.Comparisons += o.Comparisons
}

// Minus returns s - o fieldwise: the work performed since the snapshot o
// was taken. The parallel miner uses it to attribute an engine's work to
// one extension job before merging deltas in deterministic job order, so
// EVERY Stats field must appear here — dropping one silently corrupts the
// per-job attribution (stats_accounting_test.go checks every field by
// reflection).
func (s Stats) Minus(o Stats) Stats {
	return Stats{
		Joins:       s.Joins - o.Joins,
		OuterJoins:  s.OuterJoins - o.OuterJoins,
		RowsOut:     s.RowsOut - o.RowsOut,
		Comparisons: s.Comparisons - o.Comparisons,
	}
}

// Engine executes joins with a chosen strategy and records Stats. The zero
// value is an index-join engine. An Engine is NOT safe for concurrent use
// — Stats and Arena updates are plain writes; give each worker its own
// Engine and merge Stats at a barrier instead of sharing one behind a lock.
type Engine struct {
	Strategy Strategy

	// Arena, when set, recycles join-output tables (see Arena).
	Arena *Arena

	// Obs, when set, receives per-strategy join latency histograms. Nil
	// costs nothing (not even the clock reads).
	Obs *obs.Registry

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
		start := e.startJoin()
		out := e.nestedLoopJoin(l, r, &spec)
		e.endJoin(NestedLoop, start, out)
		return out
	}
	ix := NewIndex(spec.EqR[0])
	ix.Update(r)
	return e.IndexJoin(l, r, ix, &spec)
}

// startJoin counts a join and, with a registry attached, reads the clock
// for its latency histogram.
func (e *Engine) startJoin() time.Time {
	e.Stats.Joins++
	if e.Obs == nil {
		return time.Time{}
	}
	return time.Now() //wiclean:allow-nondet per-strategy join-latency histogram only; rows are unaffected
}

// endJoin accounts a finished join's output and latency.
func (e *Engine) endJoin(strat Strategy, start time.Time, out *Table) {
	e.Stats.RowsOut += int64(out.Len())
	if e.Obs != nil {
		e.Obs.Histogram(joinSeconds[strat], obs.DurationBuckets).
			ObserveDuration(time.Since(start)) //wiclean:allow-nondet per-strategy join-latency histogram only
	}
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

// table returns the finished output.
func (w *colWriter) table() *Table {
	t := w.t
	t.n = w.n
	w.t, w.out = nil, nil
	return t
}

func (e *Engine) nestedLoopJoin(l, r *Table, spec *JoinSpec) *Table {
	w := e.writer(l, r, spec)
	for li := 0; li < l.n; li++ {
		for ri := 0; ri < r.n; ri++ {
			e.Stats.Comparisons++
			if spec.eqOKAt(l, r, li, ri) && spec.neqOKAt(l, r, li, ri) {
				w.emit(li, ri)
			}
		}
	}
	return w.table()
}

// FullOuterJoin computes the full outer join of l and r under spec — the
// operator Algorithm 3 substitutes for the realization-growing join so that
// partial pattern occurrences surface as null-padded tuples (§5):
//
//   - matching (lr, rr) pairs are emitted as in Join;
//   - an l row with no match is emitted with r's output columns null-padded,
//     except columns that are join keys shared with l, which are coalesced
//     from l;
//   - an r row with no match is emitted symmetrically.
//
// The coalescing of shared key columns keeps every known variable
// assignment visible in the output so the detector can name exactly which
// action is missing. This is the detector's cold path, so it works on
// materialized rows rather than the columnar fast path.
func (e *Engine) FullOuterJoin(l, r *Table, spec JoinSpec) *Table {
	if err := spec.Validate(l, r); err != nil {
		panic(err)
	}
	e.Stats.OuterJoins++
	out := e.fullOuterJoin(l, r, spec)
	e.Stats.RowsOut += int64(out.Len())
	return out
}

func (e *Engine) fullOuterJoin(l, r *Table, spec JoinSpec) *Table {
	out := NewTable(spec.outSchema(l, r)...)

	lMatched := make([]bool, l.Len())
	rMatched := make([]bool, r.Len())

	idx := make(map[uint64][]int32, r.Len())
	for j := 0; j < r.n; j++ {
		if k, ok := hashKeyAt(r, j, spec.EqR); ok {
			idx[k] = append(idx[k], int32(j))
		}
	}
	for i := 0; i < l.n; i++ {
		k, ok := hashKeyAt(l, i, spec.EqL)
		if !ok {
			continue
		}
		lr := l.Row(i)
		for _, j := range idx[k] {
			rr := r.Row(int(j))
			e.Stats.Comparisons++
			if spec.eqOK(lr, rr) && spec.neqOK(lr, rr) {
				lMatched[i] = true
				rMatched[j] = true
				out.Append(spec.emit(lr, rr))
			}
		}
	}

	// Coalesce maps: for an unmatched l row, which r output columns can be
	// filled from l (shared join keys), and vice versa.
	rFromL := map[int]int{} // r column -> l column
	lFromR := map[int]int{} // l column -> r column
	for k := range spec.EqL {
		rFromL[spec.EqR[k]] = spec.EqL[k]
		lFromR[spec.EqL[k]] = spec.EqR[k]
	}

	for i := 0; i < l.n; i++ {
		if lMatched[i] {
			continue
		}
		lr := l.Row(i)
		rr := make(Row, r.Arity())
		for j := range rr {
			rr[j] = Null
			if li, ok := rFromL[j]; ok {
				rr[j] = lr[li]
			}
		}
		out.Append(spec.emit(lr, rr))
	}
	for j := 0; j < r.n; j++ {
		if rMatched[j] {
			continue
		}
		rr := r.Row(j)
		lr := make(Row, l.Arity())
		for i := range lr {
			lr[i] = Null
			if ri, ok := lFromR[i]; ok {
				lr[i] = rr[ri]
			}
		}
		out.Append(spec.emit(lr, rr))
	}
	return out
}
