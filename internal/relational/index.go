package relational

import "fmt"

// Index maps each non-null value of one column of a table to the numbers of
// the rows holding it, in ascending order: the index a SQL engine answers
// an equijoin against a stored table from. Algorithm 1 glues a pattern
// variable to column 0 (src) of an append-only template table in every
// extension join, so one index per template serves all of them. Update
// indexes the rows appended since its last call; between updates the
// index is read-only and safe for concurrent readers.
type Index struct {
	col  int
	rows map[Value][]int32
	n    int // rows indexed so far
}

// NewIndex returns an empty index over column col.
func NewIndex(col int) *Index {
	return &Index{col: col, rows: map[Value][]int32{}}
}

// Update indexes the rows of t appended since the last call. t must be the
// table every earlier call indexed, and rows are never removed from it.
func (ix *Index) Update(t *Table) {
	vals := t.data[ix.col]
	for i := ix.n; i < t.n; i++ {
		if v := vals[i]; !v.IsNull() {
			ix.rows[v] = append(ix.rows[v], int32(i))
		}
	}
	ix.n = t.n
}

// Truncate forgets the rows from n on, after the indexed table was
// truncated to n rows; a later Update indexes what is appended next.
func (ix *Index) Truncate(n int) {
	for v, rows := range ix.rows {
		k := len(rows)
		for k > 0 && int(rows[k-1]) >= n {
			k--
		}
		if k == 0 {
			delete(ix.rows, v)
		} else {
			ix.rows[v] = rows[:k]
		}
	}
	ix.n = min(ix.n, n)
}

// probe appends the pairs of l's and r's rows that an index probe
// accepts: ix, an up-to-date index over r's column spec.EqR[0], is probed
// with l's column spec.EqL[0], row by row. r may also be a PrefixView of
// the indexed table: rows past r's end are skipped. Each candidate pair
// counts one comparison and must pass the spec's equalities and
// inequalities. The pairs come l-major, with r's rows ascending: exactly
// the nested loop's pairs in the nested loop's order. It panics on an
// index that does not fit the spec (programming error).
func (e *Engine) probe(l, r *Table, ix *Index, spec *JoinSpec, pairs []int32) []int32 {
	if ix.col != spec.EqR[0] || ix.n < r.n {
		panic(fmt.Sprintf("relational: index over column %d (%d rows) cannot serve a join on %v of %d rows",
			ix.col, ix.n, spec.EqR, r.n))
	}
	var cmps int64
	for li, v := range l.data[spec.EqL[0]] {
		if v.IsNull() {
			continue
		}
		for _, ri := range ix.rows[v] {
			if int(ri) >= r.n {
				break // the postings ascend; the rest lie past a prefix view
			}
			cmps++
			if spec.eqOKAt(l, r, li, int(ri)) && spec.neqOKAt(l, r, li, int(ri)) {
				pairs = append(pairs, int32(li), ri)
			}
		}
	}
	e.Stats.Comparisons += cmps
	return pairs
}
