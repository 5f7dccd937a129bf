package pattern

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Canonical returns a string key identifying the pattern up to isomorphism
// on variable names of the same type (§3: "two patterns are identical if
// they are the same up to isomorphism on the variable names of the same
// type"), with the distinguished source variable pinned — renamings must
// map source to source, since frequency is measured against it.
//
// The key is the lexicographically minimal serialization over all
// type-preserving, source-pinning permutations of the variables. Patterns
// are small (the miner bounds actions per pattern), so enumerating the
// permutations of each same-type variable group is cheap; a safety cap
// falls back to a deterministic greedy labeling for adversarial inputs,
// which may distinguish isomorphic patterns but never conflates distinct
// ones.
func (p Pattern) Canonical() string {
	var s nameOrder
	ser, _ := s.minimize(p)
	return string(ser)
}

// permGroups groups the non-source variables by type (key = sorted type
// names) and reports whether enumerating every per-group permutation would
// exceed the 50000 safety cap. Canonical and Coder.Key share it so both
// keyings fall back to the greedy labeling on exactly the same patterns —
// the per-pattern decision must agree or the two keys could partition a
// single isomorphism class differently.
func (p Pattern) permGroups() (keys []string, groups map[string][]int, exploded bool) {
	groups = map[string][]int{}
	for i := 1; i < len(p.Vars); i++ {
		k := string(p.Vars[i])
		groups[k] = append(groups[k], i)
	}
	// Count permutations; cap to keep worst cases bounded. The product only
	// grows, so the early exit fires independently of map iteration order.
	perms := 1
	for _, g := range groups {
		f := 1
		for i := 2; i <= len(g); i++ {
			f *= i
		}
		perms *= f
		if perms > 50000 {
			return nil, nil, true
		}
	}
	keys = make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, groups, false
}

// nameOrder finds the relabeling behind Canonical: the one whose
// serialization — one "op|type:n|label|type:n" line per action, the lines
// sorted and joined by ';' — is least. It compares type and label names,
// never dictionary IDs, so its choice does not depend on any interning
// history. Its buffers are reused across calls; the zero value is ready.
type nameOrder struct {
	lines          [][]byte
	cur, best      []byte
	relabel, least []VarID
}

// minimize returns p's least serialization and the relabeling that first
// reaches it in enumeration order (relabel[i] is the new number of p's
// variable i). A pattern past the permutation cap takes the greedy
// labeling and a "~"-prefixed serialization. Both results alias the
// receiver's buffers until its next call.
func (s *nameOrder) minimize(p Pattern) ([]byte, []VarID) {
	n := len(p.Vars)
	if n == 0 {
		return append(s.best[:0], "[]"...), nil
	}
	s.relabel = slices.Grow(s.relabel[:0], n)[:n]
	s.least = slices.Grow(s.least[:0], n)[:n]
	keys, groups, exploded := p.permGroups()
	if exploded {
		copy(s.least, p.greedyRelabel())
		s.best = s.serialize(append(s.best[:0], '~'), p, s.least)
		return s.best, s.least
	}
	first := true
	eachRelabel(keys, groups, s.relabel, func() {
		s.cur = s.serialize(s.cur[:0], p, s.relabel)
		if first || bytes.Compare(s.cur, s.best) < 0 {
			s.best = append(s.best[:0], s.cur...)
			copy(s.least, s.relabel)
			first = false
		}
	})
	return s.best, s.least
}

// serialize appends p's serialization under relabel to dst.
func (s *nameOrder) serialize(dst []byte, p Pattern, relabel []VarID) []byte {
	s.writeLines(p, relabel)
	s.sortLines(nil)
	for i, line := range s.lines {
		if i > 0 {
			dst = append(dst, ';')
		}
		dst = append(dst, line...)
	}
	return dst
}

// writeLines renders one line per action of p under relabel into s.lines.
func (s *nameOrder) writeLines(p Pattern, relabel []VarID) {
	for len(s.lines) < len(p.Actions) {
		s.lines = append(s.lines, nil)
	}
	s.lines = s.lines[:len(p.Actions)]
	for i, a := range p.Actions {
		line := append(s.lines[i][:0], a.Op.String()...)
		line = append(line, '|')
		line = append(line, p.Vars[a.Src]...)
		line = append(line, ':')
		line = strconv.AppendInt(line, int64(relabel[a.Src]), 10)
		line = append(line, '|')
		line = append(line, a.Label...)
		line = append(line, '|')
		line = append(line, p.Vars[a.Dst]...)
		line = append(line, ':')
		line = strconv.AppendInt(line, int64(relabel[a.Dst]), 10)
		s.lines[i] = line
	}
}

// sortLines sorts s.lines and moves acts, when given, along with them.
// Insertion sort: patterns hold a handful of actions.
func (s *nameOrder) sortLines(acts []AbstractAction) {
	for i := 1; i < len(s.lines); i++ {
		for j := i; j > 0 && bytes.Compare(s.lines[j], s.lines[j-1]) < 0; j-- {
			s.lines[j], s.lines[j-1] = s.lines[j-1], s.lines[j]
			if acts != nil {
				acts[j], acts[j-1] = acts[j-1], acts[j]
			}
		}
	}
}

// eachRelabel calls f once for every type-preserving, source-pinning
// relabeling, written into relabel before each call: the source keeps 0,
// and each type group, in keys order, takes the next range of labels,
// permuted every way. Labels must not depend on where a variable happened
// to sit in the original pattern — two isomorphic patterns can hold their
// FootballClub variable at different indices, and index-derived labels
// would tell them apart.
func eachRelabel(keys []string, groups map[string][]int, relabel []VarID, f func()) {
	relabel[0] = 0
	groupBase := make([]int, len(keys))
	next := 1
	for i, k := range keys {
		groupBase[i] = next
		next += len(groups[k])
	}
	var rec func(gi int)
	rec = func(gi int) {
		if gi == len(keys) {
			f()
			return
		}
		base := groupBase[gi]
		permute(groups[keys[gi]], func(perm []int) {
			// perm[j] is the original index receiving the group's j-th
			// label.
			for j, orig := range perm {
				relabel[orig] = VarID(base + j)
			}
			rec(gi + 1)
		})
	}
	rec(0)
}

// greedyRelabel is the deterministic fallback labeling by (type, degree
// signature) refinement; ties broken by original index. Both the string and
// the compact greedy keys serialize under this relabeling.
func (p Pattern) greedyRelabel() []VarID {
	n := len(p.Vars)
	sig := make([]string, n)
	for i := 0; i < n; i++ {
		var outs, ins []string
		for _, a := range p.Actions {
			if int(a.Src) == i {
				outs = append(outs, fmt.Sprintf("%s%s>%s", a.Op, a.Label, p.Vars[a.Dst]))
			}
			if int(a.Dst) == i {
				ins = append(ins, fmt.Sprintf("%s%s<%s", a.Op, a.Label, p.Vars[a.Src]))
			}
		}
		sort.Strings(outs)
		sort.Strings(ins)
		sig[i] = string(p.Vars[i]) + "/" + strings.Join(outs, ",") + "/" + strings.Join(ins, ",")
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order[1:], func(a, b int) bool { return sig[order[a+1]] < sig[order[b+1]] })
	relabel := make([]VarID, n)
	for rank, orig := range order {
		relabel[orig] = VarID(rank)
	}
	return relabel
}

// permute calls f with every permutation of a copy of xs. The slice passed
// to f must not be retained.
func permute(xs []int, f func([]int)) {
	buf := make([]int, len(xs))
	copy(buf, xs)
	var rec func(k int)
	rec = func(k int) {
		if k == len(buf) {
			f(buf)
			return
		}
		for i := k; i < len(buf); i++ {
			buf[k], buf[i] = buf[i], buf[k]
			rec(k + 1)
			buf[k], buf[i] = buf[i], buf[k]
		}
	}
	rec(0)
}

// Equal reports pattern identity up to same-type variable isomorphism with
// pinned source.
func (p Pattern) Equal(q Pattern) bool {
	if len(p.Vars) != len(q.Vars) || len(p.Actions) != len(q.Actions) {
		return false
	}
	return p.Canonical() == q.Canonical()
}
