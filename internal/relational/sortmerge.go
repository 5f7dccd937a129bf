package relational

import "sort"

// SortMerge is a third physical join strategy: sort both sides on the join
// keys and merge. It trades the hash table for two sorts — competitive when
// inputs are large relative to the key domain, and a useful second
// optimized baseline for the engine ablations.
const SortMerge Strategy = 2

func (e *Engine) sortMergeJoin(l, r *Table, spec JoinSpec) *Table {
	if len(spec.EqL) == 0 {
		return e.hashJoin(l, r, spec) // falls back to the cross-join path
	}
	w := e.writer(l, r, spec)
	ls := sortedIdx(l, spec.EqL)
	rs := sortedIdx(r, spec.EqR)

	i, j := 0, 0
	for i < len(ls) && j < len(rs) {
		li, rj := ls[i], rs[j]
		c := compareKeysAt(l, r, li, rj, spec.EqL, spec.EqR)
		switch {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			// Find the equal-key run on both sides and emit the product.
			iEnd := i
			for iEnd < len(ls) && compareKeysAt(l, r, ls[iEnd], rj, spec.EqL, spec.EqR) == 0 {
				iEnd++
			}
			jEnd := j
			for jEnd < len(rs) && compareKeysAt(l, r, li, rs[jEnd], spec.EqL, spec.EqR) == 0 {
				jEnd++
			}
			for a := i; a < iEnd; a++ {
				for b := j; b < jEnd; b++ {
					e.Stats.Comparisons++
					la, rb := ls[a], rs[b]
					if spec.neqOKAt(l, r, la, rb) {
						w.emit(la, rb)
					}
				}
			}
			i, j = iEnd, jEnd
		}
	}
	return w.table()
}

// sortedIdx returns row indexes ordered by the key columns, with null-keyed
// rows dropped (they can never match). It deliberately mirrors the rowref
// reference implementation move for move — same []int construction, same
// sort.Slice call, same key-only comparator — because sort.Slice is not
// stable: the permutation it produces is a function of (length, comparator
// outcomes), so only an identical call sequence keeps equal-key runs in the
// same tie order, and with them the emitted row order byte-identical across
// the two engines.
func sortedIdx(t *Table, keys []int) []int {
	idx := make([]int, 0, t.n)
rows:
	for i := 0; i < t.n; i++ {
		for _, k := range keys {
			if t.data[k][i].IsNull() {
				continue rows
			}
		}
		idx = append(idx, i)
	}
	sort.Slice(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		for _, k := range keys {
			va, vb := t.data[k][ia], t.data[k][ib]
			if va != vb {
				return va < vb
			}
		}
		return false
	})
	return idx
}

// compareKeysAt orders row li of l against row rj of r by their respective
// key columns.
func compareKeysAt(l, r *Table, li, rj int, lk, rk []int) int {
	for k := range lk {
		lv, rv := l.data[lk[k]][li], r.data[rk[k]][rj]
		if lv != rv {
			if lv < rv {
				return -1
			}
			return 1
		}
	}
	return 0
}
