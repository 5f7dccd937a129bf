// Package relational is the in-memory relational engine underlying WiClean.
//
// The paper represents pattern realizations as relational tables whose
// attributes are pattern variable names and whose tuples are assignments of
// concrete entities to the variables, and grows them with dedicated
// join-based queries "optimized by the underlying SQL engine" (§4.2). The
// partial-update detector of §5 replaces those joins with full outer joins.
// This package supplies exactly that machinery: tables, equijoins with
// residual inequality predicates probed through a column index, full outer
// joins with null padding, projection, selection, dedup and distinct
// counts — plus a nested-loop execution strategy used by the PM−join
// ablation baseline.
//
// A join runs in two steps. Engine.Match finds the row pairs the join
// accepts and appends them to a caller-owned match list, and FromMatches
// builds a table from such a list, deduplicated if asked; Join, IndexJoin
// and FullOuterJoin are the two steps in a row. Algorithm 1 scores an
// extension on its match list alone and builds a table only for a
// pattern it admits.
//
// Storage is columnar: a Table holds one dense []Value slice per attribute
// rather than per-row slices. The join loops, dedup and distinct scans walk
// columns directly, so the hot path does zero per-row allocation; Row and
// Rows materialize row views on demand for the cold paths (SQL shell,
// detector reports, tests) that want tuple-shaped data. The difftest
// subpackage pins the index join against the nested loop, whole mining
// pipelines at a time, and fuzzes both against a naive row-at-a-time
// oracle that shares no code with the engine.
package relational

import (
	"fmt"
	"sort"
	"strings"
)

// Value is a table cell. WiClean stores entity IDs; Null marks a missing
// assignment produced by outer joins.
type Value int32

// Null is the SQL NULL of the engine.
const Null Value = -1

// IsNull reports whether v is the null value.
func (v Value) IsNull() bool { return v == Null }

// Row is one tuple.
type Row []Value

// Clone copies a row.
func (r Row) Clone() Row {
	c := make(Row, len(r))
	copy(c, r)
	return c
}

// Table is a named-column relation stored column-major: data[c][i] is the
// cell of column c in row i. Every column slice has exactly n entries.
type Table struct {
	cols []string
	data [][]Value
	n    int
}

// NewTable returns an empty table with the given column names.
func NewTable(cols ...string) *Table {
	c := make([]string, len(cols))
	copy(c, cols)
	return &Table{cols: c, data: make([][]Value, len(c))}
}

// FromRows builds a table from column names and rows; rows are copied.
// It panics if a row's arity does not match the schema, which always
// indicates a programming error in the caller.
func FromRows(cols []string, rows []Row) *Table {
	t := NewTable(cols...)
	for _, r := range rows {
		t.Append(r)
	}
	return t
}

// Columns returns the column names.
func (t *Table) Columns() []string { return t.cols }

// Arity returns the number of columns.
func (t *Table) Arity() int { return len(t.cols) }

// Len returns the number of rows.
func (t *Table) Len() int { return t.n }

// Row materializes row i as a freshly allocated tuple. Mutating the
// result never affects the table — cold-path convenience only; hot loops
// should walk Col slices instead.
func (t *Table) Row(i int) Row {
	r := make(Row, len(t.data))
	for c, col := range t.data {
		r[c] = col[i]
	}
	return r
}

// Rows materializes every row (cold paths and tests; hot loops walk Col).
func (t *Table) Rows() []Row {
	out := make([]Row, t.n)
	for i := range out {
		out[i] = t.Row(i)
	}
	return out
}

// Col returns the storage of column c, not copied: the hot-path accessor
// the join loops and the mining frequency scans read. Callers must not
// modify it.
func (t *Table) Col(c int) []Value { return t.data[c] }

// SetColumnName renames column i; join outputs inherit input names, and
// realization tables rename the appended column to its pattern variable.
func (t *Table) SetColumnName(i int, name string) { t.cols[i] = name }

// ColumnIndex returns the index of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	for i, c := range t.cols {
		if c == name {
			return i
		}
	}
	return -1
}

// Append adds a copy of row. It panics on arity mismatch.
func (t *Table) Append(r Row) {
	if len(r) != len(t.cols) {
		panic(fmt.Sprintf("relational: row arity %d != schema arity %d", len(r), len(t.cols)))
	}
	for c := range t.data {
		t.data[c] = append(t.data[c], r[c])
	}
	t.n++
}

// Truncate drops the rows from n on. The storage is kept, so rows appended
// later overwrite the dropped ones: no view of them may still be in use.
func (t *Table) Truncate(n int) {
	if n >= t.n {
		return
	}
	for c := range t.data {
		t.data[c] = t.data[c][:n]
	}
	t.n = n
}

// PrefixView points into at t's first n rows and returns it: a read-only
// view that shares t's storage, for reading a table as it stood when it
// held n rows. It reuses into's column list, so a caller that keeps one
// view allocates nothing once the list has grown to t's arity.
func (t *Table) PrefixView(into *Table, n int) *Table {
	into.cols = t.cols
	into.data = into.data[:0]
	for _, col := range t.data {
		into.data = append(into.data, col[:n:n])
	}
	into.n = n
	return into
}

// Reorder rearranges the columns in place: column i, name and cells, moves
// to position to[i]. to must be a permutation of 0..Arity()-1. The cells
// are not copied, so a table other readers hold must not be reordered.
func (t *Table) Reorder(to []int) {
	cols := make([]string, len(t.cols))
	data := make([][]Value, len(t.data))
	for i, j := range to {
		cols[j], data[j] = t.cols[i], t.data[i]
	}
	t.cols, t.data = cols, data
}

// Project returns a new table with the given column indexes, in order.
func (t *Table) Project(idx ...int) *Table {
	cols := make([]string, len(idx))
	out := &Table{n: t.n, data: make([][]Value, len(idx))}
	for i, j := range idx {
		cols[i] = t.cols[j]
		out.data[i] = append([]Value(nil), t.data[j]...)
	}
	out.cols = cols
	return out
}

// Select returns the rows satisfying pred, keeping the schema.
func (t *Table) Select(pred func(Row) bool) *Table {
	out := NewTable(t.cols...)
	for i := 0; i < t.n; i++ {
		if pred(t.Row(i)) {
			t.appendRowTo(out, i)
		}
	}
	return out
}

// appendRowTo copies row i of t onto the end of dst (same arity assumed).
func (t *Table) appendRowTo(dst *Table, i int) {
	for c := range t.data {
		dst.data[c] = append(dst.data[c], t.data[c][i])
	}
	dst.n++
}

// Dedup returns the table with duplicate rows removed (first occurrence
// kept). Nulls compare equal to nulls for dedup purposes. Rows are bucketed
// by an FNV hash over the columns and verified exactly, so the pass does no
// per-row allocation; FromMatches deduplicates a match list's rows the
// same way as it writes them.
func (t *Table) Dedup() *Table {
	out := NewTable(t.cols...)
	buckets := make(map[uint64][]int32, t.n)
rows:
	for i := 0; i < t.n; i++ {
		h := t.rowHashAt(i)
		for _, prev := range buckets[h] {
			if t.rowsEqualAt(int(prev), i) {
				continue rows
			}
		}
		buckets[h] = append(buckets[h], int32(i))
		t.appendRowTo(out, i)
	}
	return out
}

// rowHashAt folds row i's cells into an FNV-1a hash.
func (t *Table) rowHashAt(i int) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	for _, col := range t.data {
		u := uint32(col[i])
		for shift := 0; shift < 32; shift += 8 {
			h ^= uint64(byte(u >> shift))
			h *= prime64
		}
	}
	return h
}

func (t *Table) rowsEqualAt(i, j int) bool {
	for _, col := range t.data {
		if col[i] != col[j] {
			return false
		}
	}
	return true
}

// DistinctCount returns the number of distinct non-null values in column
// col — the SQL COUNT(DISTINCT col) the frequency computation of Algorithm 1
// (line 13) issues against the pattern-source column.
func (t *Table) DistinctCount(col int) int {
	seen := map[Value]bool{}
	for _, v := range t.data[col] {
		if !v.IsNull() {
			seen[v] = true
		}
	}
	return len(seen)
}

// DistinctValues returns the sorted distinct non-null values of column col.
func (t *Table) DistinctValues(col int) []Value {
	seen := map[Value]bool{}
	for _, v := range t.data[col] {
		if !v.IsNull() {
			seen[v] = true
		}
	}
	out := make([]Value, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Clone deep-copies the table.
func (t *Table) Clone() *Table {
	out := &Table{cols: append([]string(nil), t.cols...), n: t.n}
	out.data = make([][]Value, len(t.data))
	for c := range t.data {
		out.data[c] = append([]Value(nil), t.data[c]...)
	}
	return out
}

// String renders a small table for debugging.
func (t *Table) String() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.cols, " | "))
	b.WriteByte('\n')
	for i := 0; i < t.n; i++ {
		if i >= 20 {
			fmt.Fprintf(&b, "... (%d rows total)\n", t.n)
			break
		}
		for j, col := range t.data {
			if j > 0 {
				b.WriteString(" | ")
			}
			if col[i].IsNull() {
				b.WriteString("∅")
			} else {
				fmt.Fprintf(&b, "%d", col[i])
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
