package difftest

import (
	"math/rand"
	"slices"
	"testing"

	"wiclean/internal/relational"
)

// byteReader consumes fuzz input one byte at a time, yielding zeros once
// the input runs out so every byte string decodes to a complete case.
type byteReader struct {
	data []byte
	i    int
}

func (b *byteReader) next() byte {
	if b.i >= len(b.data) {
		return 0
	}
	v := b.data[b.i]
	b.i++
	return v
}

// decodeFuzzCase builds two tables and a JoinSpec from raw fuzz bytes.
// Table cells decode to a small domain plus Null; spec column indexes are
// decoded with a deliberate off-by-one range (-1 .. 4) so the fuzzer can
// reach out-of-range and mismatched specs — JoinSpec.Validate, not the
// decoder, is the guard under test.
//
// Cells can also decode in "interned" mode: values shaped like dictionary
// IDs — dense duplicated low IDs mixed with IDs crossing the 16-bit
// boundary (the width the interning dictionary's uvarint encoding grows
// past) — which drives the index's keys through adversarially duplicated
// and widely spread values.
func decodeFuzzCase(data []byte) (l, r *relational.Table, spec relational.JoinSpec) {
	b := &byteReader{data: data}
	decodeTable := func(prefix string) *relational.Table {
		arity := 1 + int(b.next()%4)
		cols := make([]string, arity)
		for i := range cols {
			cols[i] = prefix + string(rune('0'+i))
		}
		t := relational.NewTable(cols...)
		rows := int(b.next() % 32)
		interned := b.next()%4 == 0
		domain := 1 + int(b.next()%6)
		for i := 0; i < rows; i++ {
			row := make(relational.Row, arity)
			for j := range row {
				if interned {
					// 17-bit IDs: Null, dense duplicates and >64k values in
					// one distribution.
					row[j] = relational.Value(int(b.next())<<9|int(b.next())) - 1
				} else {
					row[j] = relational.Value(int(b.next())%(domain+1)) - 1 // -1 is Null
				}
			}
			t.Append(row)
		}
		return t
	}
	l = decodeTable("l")
	r = decodeTable("r")
	idx := func() int { return int(b.next()%6) - 1 }
	for k, n := 0, int(b.next()%4); k < n; k++ {
		spec.EqL = append(spec.EqL, idx())
		spec.EqR = append(spec.EqR, idx())
	}
	for k, n := 0, int(b.next()%4); k < n; k++ {
		spec.NeqL = append(spec.NeqL, idx())
		spec.NeqR = append(spec.NeqR, idx())
	}
	for k, n := 0, int(b.next()%4); k < n; k++ {
		spec.LOut = append(spec.LOut, idx())
	}
	for k, n := 0, int(b.next()%4); k < n; k++ {
		spec.ROut = append(spec.ROut, idx())
	}
	return l, r, spec
}

// fuzzSeeds feeds the corpus: a handful of fixed-seed random byte strings
// plus hand-picked shapes — empty input, a cross join, an input long
// enough to decode out-of-range spec indexes, dictionary-shaped cases (the
// on-disk testdata corpus pins more of those: duplicates, all-identical
// keys, and IDs past the 16-bit boundary) and a join whose row order shows.
func fuzzSeeds(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 4, 3, 0, 1, 2, 3, 4, 5, 6, 7, 1, 4, 3, 7, 6, 5, 4, 3, 2, 1, 0, 1, 0, 0, 1, 0, 1, 1})
	f.Add([]byte{2, 8, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 2, 8, 2, 2, 1, 0, 2, 1, 0, 3, 5, 5, 5, 5, 5, 5, 3, 5, 5, 5})
	// Interned mode on both sides (mode byte ≡ 0 mod 4): one-column tables
	// of 17-bit IDs joined on a single equality.
	wide := []byte{0, 8, 0, 1}
	for i := 0; i < 8; i++ {
		wide = append(wide, byte(i*37), byte(i*11)) // high, low ID bytes
	}
	wide = append(wide, 0, 8, 0, 1)
	for i := 0; i < 8; i++ {
		wide = append(wide, byte(i*37), byte(i*11))
	}
	wide = append(wide, 1, 1, 1, 0, 1, 1, 1, 1) // EqL=[0] EqR=[0], LOut=[0], ROut=[0]
	f.Add(wide)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 8; i++ {
		buf := make([]byte, 8+rng.Intn(120))
		rng.Read(buf)
		f.Add(buf)
	}
	// Two left rows on one key, three right rows on it that differ in the
	// projected column: the output order is visible in the rows.
	f.Add([]byte{0, 2, 1, 2, 2, 2, 1, 3, 1, 2, 2, 1, 2, 3, 2, 2, 1, 1, 1, 0, 1, 1, 1, 2})
}

// The naive oracle below computes joins from their definition, a row at a
// time, reading only Rows(), Columns() and the spec's fields. It calls no
// engine code, so it cannot share a bug with the engine.

// eqHolds reports whether every equality of spec holds between rows lr and
// rr: both cells non-null and equal (SQL semantics).
func eqHolds(spec relational.JoinSpec, lr, rr relational.Row) bool {
	for k := range spec.EqL {
		lv, rv := lr[spec.EqL[k]], rr[spec.EqR[k]]
		if lv == relational.Null || rv == relational.Null || lv != rv {
			return false
		}
	}
	return true
}

// neqHolds reports whether every inequality of spec holds between rows lr
// and rr; an inequality with a null operand holds.
func neqHolds(spec relational.JoinSpec, lr, rr relational.Row) bool {
	for k := range spec.NeqL {
		lv, rv := lr[spec.NeqL[k]], rr[spec.NeqR[k]]
		if lv != relational.Null && rv != relational.Null && lv == rv {
			return false
		}
	}
	return true
}

// project builds one output row: lr's LOut cells, then rr's ROut cells.
func project(spec relational.JoinSpec, lr, rr relational.Row) relational.Row {
	var out relational.Row
	for _, i := range spec.LOut {
		out = append(out, lr[i])
	}
	for _, i := range spec.ROut {
		out = append(out, rr[i])
	}
	return out
}

// naiveColumns names the join output: l's LOut columns, then r's ROut ones.
func naiveColumns(l, r *relational.Table, spec relational.JoinSpec) []string {
	var cols []string
	for _, i := range spec.LOut {
		cols = append(cols, l.Columns()[i])
	}
	for _, i := range spec.ROut {
		cols = append(cols, r.Columns()[i])
	}
	return cols
}

// naiveJoin is the inner join: every pair of rows that satisfies the spec,
// l-major with r's rows ascending.
func naiveJoin(l, r *relational.Table, spec relational.JoinSpec) []relational.Row {
	var out []relational.Row
	for _, lr := range l.Rows() {
		for _, rr := range r.Rows() {
			if eqHolds(spec, lr, rr) && neqHolds(spec, lr, rr) {
				out = append(out, project(spec, lr, rr))
			}
		}
	}
	return out
}

// naiveFullOuter is the full outer join's documented semantics: the inner
// join's pairs, then every unmatched row null-padded on the other side,
// with the join keys it shares with that side coalesced into it.
func naiveFullOuter(l, r *relational.Table, spec relational.JoinSpec) []relational.Row {
	lRows, rRows := l.Rows(), r.Rows()
	lMatched := make([]bool, len(lRows))
	rMatched := make([]bool, len(rRows))
	var out []relational.Row
	for i, lr := range lRows {
		for j, rr := range rRows {
			if eqHolds(spec, lr, rr) && neqHolds(spec, lr, rr) {
				lMatched[i], rMatched[j] = true, true
				out = append(out, project(spec, lr, rr))
			}
		}
	}
	pad := func(arity int, from relational.Row, fromIdx, toIdx []int) relational.Row {
		row := make(relational.Row, arity)
		for i := range row {
			row[i] = relational.Null
		}
		for k := range fromIdx {
			row[toIdx[k]] = from[fromIdx[k]]
		}
		return row
	}
	for i, lr := range lRows {
		if !lMatched[i] {
			out = append(out, project(spec, lr, pad(len(r.Columns()), lr, spec.EqL, spec.EqR)))
		}
	}
	for j, rr := range rRows {
		if !rMatched[j] {
			out = append(out, project(spec, pad(len(l.Columns()), rr, spec.EqR, spec.EqL), rr))
		}
	}
	return out
}

// sameRows reports whether got holds exactly the rows want, in order.
func sameRows(got *relational.Table, want []relational.Row) bool {
	rows := got.Rows()
	if len(rows) != len(want) {
		return false
	}
	for i := range rows {
		if !slices.Equal(rows[i], want[i]) {
			return false
		}
	}
	return true
}

// FuzzJoin checks, on arbitrary inputs, that a spec passing Validate
// never panics inside a join, and that every inner-join path — the index
// join behind HashStrategy, the forced nested loop, and IndexJoin over a
// fresh index — returns exactly the oracle's rows in the oracle's order.
func FuzzJoin(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		l, r, spec := decodeFuzzCase(data)
		if spec.Validate(l, r) != nil {
			return // out-of-range specs must be rejected here, never panic below
		}
		want := naiveJoin(l, r, spec)
		wantCols := naiveColumns(l, r, spec)
		check := func(path string, got *relational.Table) {
			t.Helper()
			if !slices.Equal(got.Columns(), wantCols) || !sameRows(got, want) {
				t.Fatalf("%s disagrees with the oracle\nspec %+v\nl %v\nr %v\nwant %v %v\ngot  %v %v",
					path, spec, l.Rows(), r.Rows(), wantCols, want, got.Columns(), got.Rows())
			}
		}
		check("hash", (&relational.Engine{}).Join(l, r, spec))
		check("nested-loop", (&relational.Engine{Strategy: relational.NestedLoop}).Join(l, r, spec))
		if len(spec.EqL) > 0 {
			ix := relational.NewIndex(spec.EqR[0])
			ix.Update(r)
			check("index", (&relational.Engine{}).IndexJoin(l, r, ix, &spec))
		}
	})
}

// FuzzFullOuterJoin checks, on arbitrary inputs, that a spec passing
// Validate never panics inside a full outer join, and that the join
// returns exactly the oracle's rows in the oracle's order — the inner
// pairs l-major with r's rows ascending, then the unmatched l rows, then
// the unmatched r rows — under either strategy. Algorithm 3 reads that
// order: Dedup keeps each row's first occurrence and Report.Examples the
// first full realizations.
func FuzzFullOuterJoin(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		l, r, spec := decodeFuzzCase(data)
		if spec.Validate(l, r) != nil {
			return
		}
		want := naiveFullOuter(l, r, spec)
		wantCols := naiveColumns(l, r, spec)
		for _, strat := range []relational.Strategy{relational.HashStrategy, relational.NestedLoop} {
			got := (&relational.Engine{Strategy: strat}).FullOuterJoin(l, r, spec)
			if !slices.Equal(got.Columns(), wantCols) || !sameRows(got, want) {
				t.Fatalf("%s full outer join disagrees with the oracle\nspec %+v\nl %v\nr %v\nwant %v %v\ngot  %v %v",
					strat, spec, l.Rows(), r.Rows(), wantCols, want, got.Columns(), got.Rows())
			}
		}
	})
}
