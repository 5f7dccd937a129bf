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
// touching only the predicate columns.
func (s JoinSpec) neqOKAt(l, r *Table, li, ri int) bool {
	for k := range s.NeqL {
		lv, rv := l.data[s.NeqL[k]][li], r.data[s.NeqR[k]][ri]
		if !lv.IsNull() && !rv.IsNull() && lv == rv {
			return false
		}
	}
	return true
}

// eqOKAt is eqOK against table storage.
func (s JoinSpec) eqOKAt(l, r *Table, li, ri int) bool {
	for k := range s.EqL {
		lv, rv := l.data[s.EqL[k]][li], r.data[s.EqR[k]][ri]
		if lv.IsNull() || rv.IsNull() || lv != rv {
			return false
		}
	}
	return true
}

// hashKey folds a materialized row's join-key columns into an FNV-1a hash
// (outer-join path). Collisions are possible, so probes must re-verify
// equality; null keys report false (they can never match).
func hashKey(r Row, idx []int) (uint64, bool) {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, i := range idx {
		v := r[i]
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

// hashKeyAt is hashKey against table storage — same FNV-1a fold, so bucket
// populations (and the Comparisons they induce) are identical to the row
// reference engine's.
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

// Execution strategies. HashStrategy is WC's optimized engine path;
// NestedLoop is the "conventional main memory nested loop" the PM−join
// ablation of §6.1 falls back to.
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
	case SortMerge:
		return "sort-merge"
	case AutoStrategy:
		return "auto"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Stats accumulates the work an Engine performed, for the running-time
// ablations (rows compared is the honest cost proxy across strategies).
// Every field is a pure function of the joined tables and specs — never of
// wall clock, worker count or arena state — so per-worker Stats merge to
// the same totals no matter how the joins were scheduled. (Arena reuse is
// scheduling-dependent and therefore lives in ArenaMetrics, not here.)
type Stats struct {
	Joins       int
	OuterJoins  int
	RowsOut     int64
	Comparisons int64

	// InternedProbes counts hash joins that qualified for the interned
	// single-key probe (exactly one equality pair, so the dictionary ID is
	// the hash — no FNV fold, no equality re-verification).
	// InternedProbeHits counts the candidate pairs those probes surfaced.
	// The rowref reference engine counts both for the joins that WOULD
	// qualify, even though it still runs the FNV probe, so the metrics —
	// and Minus deltas — stay comparable pre/post rewrite.
	InternedProbes    int
	InternedProbeHits int64

	// AutoStrategy planner decisions, by chosen physical strategy.
	PlannedHash      int
	PlannedSortMerge int
	PlannedNested    int
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Joins += o.Joins
	s.OuterJoins += o.OuterJoins
	s.RowsOut += o.RowsOut
	s.Comparisons += o.Comparisons
	s.InternedProbes += o.InternedProbes
	s.InternedProbeHits += o.InternedProbeHits
	s.PlannedHash += o.PlannedHash
	s.PlannedSortMerge += o.PlannedSortMerge
	s.PlannedNested += o.PlannedNested
}

// Minus returns s - o fieldwise: the work performed since the snapshot o
// was taken. The parallel miner uses it to attribute an engine's work to
// one extension job before merging deltas in deterministic job order, so
// EVERY Stats field must appear here — dropping one silently corrupts the
// per-job attribution (the interned-probe counters were exactly such a
// near-miss; stats_accounting_test.go now closes the class with
// reflection).
func (s Stats) Minus(o Stats) Stats {
	return Stats{
		Joins:             s.Joins - o.Joins,
		OuterJoins:        s.OuterJoins - o.OuterJoins,
		RowsOut:           s.RowsOut - o.RowsOut,
		Comparisons:       s.Comparisons - o.Comparisons,
		InternedProbes:    s.InternedProbes - o.InternedProbes,
		InternedProbeHits: s.InternedProbeHits - o.InternedProbeHits,
		PlannedHash:       s.PlannedHash - o.PlannedHash,
		PlannedSortMerge:  s.PlannedSortMerge - o.PlannedSortMerge,
		PlannedNested:     s.PlannedNested - o.PlannedNested,
	}
}

// Engine executes joins with a chosen strategy and records Stats. The zero
// value is a hash-join engine on the built-in columnar implementation. An
// Engine is NOT safe for concurrent use — Stats and Arena updates are plain
// writes; give each worker its own Engine and merge Stats at a barrier
// instead of sharing one behind a lock.
type Engine struct {
	Strategy Strategy

	// Arena, when set, recycles join-output column buffers (see Arena).
	Arena *Arena

	// Impl, when set, replaces the built-in columnar join implementations —
	// the hook the rowref reference engine plugs into so the difftest suite
	// can run the identical planner/stats/dispatch shell over both physical
	// engines. Nil means columnar.
	Impl Impl

	// Obs, when set, receives per-strategy join latency histograms,
	// planner-decision counters and interned-probe counts. Nil costs
	// nothing (not even the clock reads).
	Obs *obs.Registry

	Stats Stats
}

// Join computes the inner join of l and r under spec. It panics on an
// invalid spec (programming error). With Strategy == AutoStrategy the
// planner picks the physical join from the input cardinalities; any other
// value forces that implementation.
func (e *Engine) Join(l, r *Table, spec JoinSpec) *Table {
	if err := spec.Validate(l, r); err != nil {
		panic(err)
	}
	e.Stats.Joins++
	strat := e.Strategy
	if strat == AutoStrategy {
		strat = spec.plan(l, r)
		e.recordPlan(strat)
		e.Obs.Counter(obs.Labeled(obs.RelationalPlannerDecisions, "strategy", strat.String())).Inc()
	}
	var start time.Time
	if e.Obs != nil {
		start = time.Now() //wiclean:allow-nondet per-strategy join-latency histogram only; rows are unaffected
	}
	var out *Table
	if e.Impl != nil {
		out = e.Impl.Join(e, l, r, spec, strat)
	} else {
		switch strat {
		case NestedLoop:
			out = e.nestedLoopJoin(l, r, spec)
		case SortMerge:
			out = e.sortMergeJoin(l, r, spec)
		default:
			out = e.hashJoin(l, r, spec)
		}
	}
	if e.Obs != nil {
		dur := time.Since(start) //wiclean:allow-nondet per-strategy join-latency histogram only
		e.Obs.Histogram(obs.Labeled(obs.RelationalJoinSeconds, "strategy", strat.String()), obs.DurationBuckets).
			ObserveDuration(dur)
	}
	e.Stats.RowsOut += int64(out.Len())
	return out
}

// colWriter accumulates join output column-wise: emit(li, ri) gathers the
// projected cells of l row li and r row ri straight from the source
// columns — no per-row Row allocation anywhere on the hot path.
type colWriter struct {
	lSrc, rSrc [][]Value // source columns in output order
	out        [][]Value
	n          int
}

func newColWriter(l, r *Table, spec JoinSpec, a *Arena) *colWriter {
	w := &colWriter{
		lSrc: make([][]Value, len(spec.LOut)),
		rSrc: make([][]Value, len(spec.ROut)),
		out:  make([][]Value, len(spec.LOut)+len(spec.ROut)),
	}
	for k, c := range spec.LOut {
		w.lSrc[k] = l.data[c]
	}
	for k, c := range spec.ROut {
		w.rSrc[k] = r.data[c]
	}
	for k := range w.out {
		w.out[k] = a.getCol()
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

func (w *colWriter) table(cols []string) *Table {
	return &Table{cols: cols, data: w.out, n: w.n}
}

func (e *Engine) hashJoin(l, r *Table, spec JoinSpec) *Table {
	cols := spec.outSchema(l, r)
	w := newColWriter(l, r, spec, e.Arena)
	if len(spec.EqL) == 0 {
		// Degenerate cross join with residual predicates.
		for li := 0; li < l.n; li++ {
			for ri := 0; ri < r.n; ri++ {
				e.Stats.Comparisons++
				if spec.neqOKAt(l, r, li, ri) {
					w.emit(li, ri)
				}
			}
		}
		return w.table(cols)
	}
	// Build on the smaller side.
	buildLeft := l.n <= r.n
	build, probe := l, r
	buildKeys, probeKeys := spec.EqL, spec.EqR
	if !buildLeft {
		build, probe = r, l
		buildKeys, probeKeys = spec.EqR, spec.EqL
	}
	if len(spec.EqL) == 1 {
		// Interned probe: with a single equality pair the dictionary ID in
		// the key column IS the key — index rows by exact Value, skip the
		// FNV fold, and skip eqOK re-verification (exact keys cannot
		// collide). Candidate counts still match the FNV path whenever FNV
		// was collision-free, which the difftest suite pins.
		e.Stats.InternedProbes++
		if e.Obs != nil {
			e.Obs.Counter(obs.RelationalInternedProbes).Inc()
		}
		bk := build.data[buildKeys[0]]
		idx := make(map[Value][]int32, build.n)
		for i, v := range bk {
			if !v.IsNull() {
				idx[v] = append(idx[v], int32(i))
			}
		}
		pk := probe.data[probeKeys[0]]
		var hits int64
		for pi := 0; pi < probe.n; pi++ {
			v := pk[pi]
			if v.IsNull() {
				continue
			}
			for _, bi := range idx[v] {
				li, ri := int(bi), pi
				if !buildLeft {
					li, ri = pi, int(bi)
				}
				hits++
				if spec.neqOKAt(l, r, li, ri) {
					w.emit(li, ri)
				}
			}
		}
		e.Stats.Comparisons += hits
		e.Stats.InternedProbeHits += hits
		if e.Obs != nil && hits > 0 {
			e.Obs.Counter(obs.RelationalInternedProbeHits).Add(hits)
		}
		return w.table(cols)
	}
	idx := make(map[uint64][]int32, build.n)
	for i := 0; i < build.n; i++ {
		if k, ok := hashKeyAt(build, i, buildKeys); ok {
			idx[k] = append(idx[k], int32(i))
		}
	}
	for pi := 0; pi < probe.n; pi++ {
		k, ok := hashKeyAt(probe, pi, probeKeys)
		if !ok {
			continue
		}
		for _, bi := range idx[k] {
			li, ri := int(bi), pi
			if !buildLeft {
				li, ri = pi, int(bi)
			}
			e.Stats.Comparisons++
			if spec.eqOKAt(l, r, li, ri) && spec.neqOKAt(l, r, li, ri) {
				w.emit(li, ri)
			}
		}
	}
	return w.table(cols)
}

func (e *Engine) nestedLoopJoin(l, r *Table, spec JoinSpec) *Table {
	w := newColWriter(l, r, spec, e.Arena)
	for li := 0; li < l.n; li++ {
		for ri := 0; ri < r.n; ri++ {
			e.Stats.Comparisons++
			if spec.eqOKAt(l, r, li, ri) && spec.neqOKAt(l, r, li, ri) {
				w.emit(li, ri)
			}
		}
	}
	return w.table(spec.outSchema(l, r))
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
	var out *Table
	if e.Impl != nil {
		out = e.Impl.FullOuterJoin(e, l, r, spec)
	} else {
		out = e.fullOuterJoin(l, r, spec)
	}
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
