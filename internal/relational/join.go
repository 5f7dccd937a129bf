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
// Comparisons counts the candidate pairs a join checks; RowsOut counts the
// rows it writes, which for an inner join are its matched pairs, whether
// or not a table is built from them (Match). Every field is a pure
// function of the joined tables, specs and strategy — never of wall clock
// or worker count — so per-worker Stats merge to the same totals no matter
// how the joins were scheduled.
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
// for concurrent use — Stats updates are plain writes; give each worker
// its own Engine and sum their Stats afterwards instead of sharing one
// behind a lock.
type Engine struct {
	Strategy Strategy

	Stats Stats
}

// Match appends to pairs the row pairs the inner join of l and r under
// spec accepts, each as l's row number followed by r's, and returns the
// extended list: l-major with r's rows ascending, the rows Join writes in
// Join's order. Under HashStrategy it probes ix, an up-to-date index over
// r's column spec.EqR[0], or an index it builds over r when ix is nil; r
// may also be a PrefixView of the indexed table, whose later rows are
// skipped. Under NestedLoop, or for a spec without an equality, it
// compares every pair of rows and does not read ix. It counts one join,
// one comparison per candidate pair and one row out per accepted pair,
// and it allocates nothing but the list's growth when given an index. It
// panics on an invalid spec or an index that does not fit it
// (programming errors).
func (e *Engine) Match(l, r *Table, ix *Index, spec *JoinSpec, pairs []int32) []int32 {
	e.Stats.Joins++
	n := len(pairs)
	pairs = e.match(l, r, ix, spec, pairs)
	e.Stats.RowsOut += int64(len(pairs)-n) / 2
	return pairs
}

// match validates spec and runs the strategy's probe loop, counting its
// comparisons: the one probe path of the inner and the outer joins.
func (e *Engine) match(l, r *Table, ix *Index, spec *JoinSpec, pairs []int32) []int32 {
	if err := spec.Validate(l, r); err != nil {
		panic(err)
	}
	if e.Strategy == NestedLoop || len(spec.EqL) == 0 {
		e.Stats.Comparisons += int64(l.n) * int64(r.n)
		for li := 0; li < l.n; li++ {
			for ri := 0; ri < r.n; ri++ {
				if spec.eqOKAt(l, r, li, ri) && spec.neqOKAt(l, r, li, ri) {
					pairs = append(pairs, int32(li), int32(ri))
				}
			}
		}
		return pairs
	}
	if ix == nil {
		ix = NewIndex(spec.EqR[0])
		ix.Update(r)
	}
	return e.probe(l, r, ix, spec, pairs)
}

// Join computes the inner join of l and r under spec: the table
// FromMatches builds from Match's pairs, l-major with r's rows ascending.
// Under HashStrategy it indexes r on its first equality column; under
// NestedLoop, or without an equality, it compares every pair of rows. It
// panics on an invalid spec (programming error).
func (e *Engine) Join(l, r *Table, spec JoinSpec) *Table {
	return FromMatches(l, r, &spec, e.Match(l, r, nil, &spec, nil), false)
}

// IndexJoin computes Join(l, r, *spec) through ix, an up-to-date index
// over r's column spec.EqR[0], as Match reads it.
func (e *Engine) IndexJoin(l, r *Table, ix *Index, spec *JoinSpec) *Table {
	return FromMatches(l, r, spec, e.Match(l, r, ix, spec, nil), false)
}

// FromMatches builds the table a join of l and r under spec writes for
// the match list pairs (as Match returns it): one row per pair, l's LOut
// columns then r's ROut columns, named after them. Only the projection of
// spec is read. When distinct is set a row equal to an earlier one is
// left out, the first occurrence kept, as Dedup would leave it: the miner
// builds an admitted pattern's realization table this way. Rows are
// bucketed by Dedup's hash and verified exactly.
func FromMatches(l, r *Table, spec *JoinSpec, pairs []int32, distinct bool) *Table {
	arity := len(spec.LOut) + len(spec.ROut)
	t := &Table{cols: make([]string, 0, arity), data: make([][]Value, arity)}
	src := make([][]Value, 0, arity) // source columns in output order
	for _, c := range spec.LOut {
		t.cols = append(t.cols, l.cols[c])
		src = append(src, l.data[c])
	}
	for _, c := range spec.ROut {
		t.cols = append(t.cols, r.cols[c])
		src = append(src, r.data[c])
	}
	nl := len(spec.LOut)
	for c := range t.data {
		t.data[c] = make([]Value, 0, len(pairs)/2)
	}
	var buckets map[uint64][]int32
	if distinct {
		buckets = make(map[uint64][]int32, len(pairs)/2)
	}
rows:
	for k := 0; k < len(pairs); k += 2 {
		for c, col := range src {
			i := pairs[k]
			if c >= nl {
				i = pairs[k+1]
			}
			t.data[c] = append(t.data[c], col[i])
		}
		if distinct {
			// The row is written past t.n; a duplicate is cut off again.
			h := t.rowHashAt(t.n)
			for _, prev := range buckets[h] {
				if t.rowsEqualAt(int(prev), t.n) {
					for c := range t.data {
						t.data[c] = t.data[c][:t.n]
					}
					continue rows
				}
			}
			buckets[h] = append(buckets[h], int32(t.n))
		}
		t.n++
	}
	return t
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
// action is missing. The candidate pairs are Join's, found by the same
// probe, and each counts one comparison; the matched rows are built by
// FromMatches and the padded rows appended after them.
func (e *Engine) FullOuterJoin(l, r *Table, spec JoinSpec) *Table {
	e.Stats.OuterJoins++
	pairs := e.match(l, r, nil, &spec, nil)
	t := FromMatches(l, r, &spec, pairs, false)
	lMatched := make([]bool, l.n)
	rMatched := make([]bool, r.n)
	for k := 0; k < len(pairs); k += 2 {
		lMatched[pairs[k]], rMatched[pairs[k+1]] = true, true
	}
	lSrc, rSrc := columns(spec.LOut, l), columns(spec.ROut, r)
	rPad := coalesced(spec.ROut, spec.EqR, spec.EqL, l)
	for li, m := range lMatched {
		if !m {
			t.pad(lSrc, rPad, li)
		}
	}
	lPad := coalesced(spec.LOut, spec.EqL, spec.EqR, r)
	for ri, m := range rMatched {
		if !m {
			t.pad(lPad, rSrc, ri)
		}
	}
	e.Stats.RowsOut += int64(t.n)
	return t
}

// pad appends an outer join's unmatched row i: each column takes row i
// of its source column in lSrc, then rSrc, and is null where the source
// is nil.
func (t *Table) pad(lSrc, rSrc [][]Value, i int) {
	k := 0
	for _, srcs := range [2][][]Value{lSrc, rSrc} {
		for _, src := range srcs {
			v := Null
			if src != nil {
				v = src[i]
			}
			t.data[k] = append(t.data[k], v)
			k++
		}
	}
	t.n++
}

// columns returns t's columns out, in order.
func columns(out []int, t *Table) [][]Value {
	src := make([][]Value, len(out))
	for i, c := range out {
		src[i] = t.data[c]
	}
	return src
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
