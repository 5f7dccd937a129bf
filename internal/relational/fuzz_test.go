package relational

import (
	"math/rand"
	"testing"
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
// Since the columnar rewrite, cells can also decode in "interned" mode:
// values shaped like dictionary IDs — dense duplicated low IDs mixed with
// IDs crossing the 16-bit boundary (the width the interning dictionary's
// uvarint encoding grows past) — which drives the single-equality hash
// joins through the interned exact-key probe with adversarially colliding
// and duplicated keys, differentially against the other strategies.
func decodeFuzzCase(data []byte) (l, r *Table, spec JoinSpec) {
	b := &byteReader{data: data}
	decodeTable := func(prefix string) *Table {
		arity := 1 + int(b.next()%4)
		cols := make([]string, arity)
		for i := range cols {
			cols[i] = prefix + string(rune('0'+i))
		}
		t := NewTable(cols...)
		rows := int(b.next() % 32)
		interned := b.next()%4 == 0
		domain := 1 + int(b.next()%6)
		for i := 0; i < rows; i++ {
			row := make(Row, arity)
			for j := range row {
				if interned {
					// 17-bit IDs: Null, dense duplicates and >64k values in
					// one distribution.
					row[j] = Value(int(b.next())<<9|int(b.next())) - 1
				} else {
					row[j] = Value(int(b.next())%(domain+1)) - 1 // -1 is Null
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
// (the same distribution the property-test generator explores) plus
// hand-picked shapes — empty input, a cross join, an input long enough to
// decode out-of-range spec indexes, and dictionary-shaped cases (the
// on-disk testdata corpus pins more of those: duplicates, all-identical
// keys, and IDs past the 16-bit boundary through the interned probe).
func fuzzSeeds(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 4, 3, 0, 1, 2, 3, 4, 5, 6, 7, 1, 4, 3, 7, 6, 5, 4, 3, 2, 1, 0, 1, 0, 0, 1, 0, 1, 1})
	f.Add([]byte{2, 8, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 2, 8, 2, 2, 1, 0, 2, 1, 0, 3, 5, 5, 5, 5, 5, 5, 3, 5, 5, 5})
	// Interned mode on both sides (mode byte ≡ 0 mod 4): one-column tables
	// of 17-bit IDs joined on a single equality — the interned-probe shape.
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
}

// FuzzJoin checks two invariants on arbitrary inputs: a spec that passes
// Validate never panics inside any join body, and every optimized
// strategy (hash, sort-merge, planner) agrees with the nested-loop
// reference.
func FuzzJoin(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		l, r, spec := decodeFuzzCase(data)
		if spec.Validate(l, r) != nil {
			return // out-of-range specs must be rejected here, never panic below
		}
		ref := (&Engine{Strategy: NestedLoop}).Join(l, r, spec)
		for _, e := range differentialEngines() {
			got := e.Join(l, r, spec)
			if !sameRowMultiset(ref, got) {
				t.Fatalf("%s disagrees with nested-loop\nspec %+v\nl %v\nr %v\nref %v\ngot %v",
					e.Strategy, spec, l.Rows(), r.Rows(), ref.Rows(), got.Rows())
			}
		}
	})
}

// naiveFullOuter is an independent nested-loop reference for the full
// outer join's documented semantics: matched pairs as in Join, then
// unmatched rows null-padded with shared join keys coalesced from the
// surviving side.
func naiveFullOuter(l, r *Table, spec JoinSpec) *Table {
	out := NewTable(spec.outSchema(l, r)...)
	lMatched := make([]bool, l.Len())
	rMatched := make([]bool, r.Len())
	for i, lr := range l.Rows() {
		for j, rr := range r.Rows() {
			if spec.eqOK(lr, rr) && spec.neqOK(lr, rr) {
				lMatched[i] = true
				rMatched[j] = true
				out.Append(spec.emit(lr, rr))
			}
		}
	}
	pad := func(arity int, from Row, fromIdx, toIdx []int) Row {
		row := make(Row, arity)
		for i := range row {
			row[i] = Null
		}
		for k := range fromIdx {
			row[toIdx[k]] = from[fromIdx[k]]
		}
		return row
	}
	for i, lr := range l.Rows() {
		if !lMatched[i] {
			out.Append(spec.emit(lr, pad(r.Arity(), lr, spec.EqL, spec.EqR)))
		}
	}
	for j, rr := range r.Rows() {
		if !rMatched[j] {
			out.Append(spec.emit(pad(l.Arity(), rr, spec.EqR, spec.EqL), rr))
		}
	}
	return out
}

// FuzzFullOuterJoin differentially checks the hash-indexed full outer join
// against the naive reference, and that Validate screens malformed specs
// before they can panic.
func FuzzFullOuterJoin(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		l, r, spec := decodeFuzzCase(data)
		if spec.Validate(l, r) != nil {
			return
		}
		ref := naiveFullOuter(l, r, spec)
		got := (&Engine{}).FullOuterJoin(l, r, spec)
		if !sameRowMultiset(ref, got) {
			t.Fatalf("full outer join disagrees with reference\nspec %+v\nl %v\nr %v\nref %v\ngot %v",
				spec, l.Rows(), r.Rows(), ref.Rows(), got.Rows())
		}
	})
}
