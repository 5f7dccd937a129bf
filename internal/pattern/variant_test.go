package pattern

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"wiclean/internal/action"
	"wiclean/internal/relational"
	"wiclean/internal/taxonomy"
)

// referenceCanonical is Canonical written out the slow way, sharing no
// code with it: every permutation of the non-source variables that sends
// each type group onto its label range (groups in type-name order), each
// serialized with fmt, the least one kept.
func referenceCanonical(p Pattern) string {
	n := len(p.Vars)
	if n == 0 {
		return "[]"
	}
	var types []string
	for i := 1; i < n; i++ {
		types = append(types, string(p.Vars[i]))
	}
	sort.Strings(types)
	lo, hi := map[string]int{}, map[string]int{}
	for i, t := range types {
		if _, ok := lo[t]; !ok {
			lo[t] = i + 1
		}
		hi[t] = i + 1
	}
	best, found := "", false
	relabel := make([]int, n)
	used := make([]bool, n)
	var rec func(v int)
	rec = func(v int) {
		if v == n {
			lines := make([]string, len(p.Actions))
			for i, a := range p.Actions {
				lines[i] = fmt.Sprintf("%s|%s:%d|%s|%s:%d",
					a.Op, p.Vars[a.Src], relabel[a.Src], a.Label, p.Vars[a.Dst], relabel[a.Dst])
			}
			sort.Strings(lines)
			if s := strings.Join(lines, ";"); !found || s < best {
				best, found = s, true
			}
			return
		}
		t := string(p.Vars[v])
		for l := lo[t]; l <= hi[t]; l++ {
			if !used[l] {
				used[l] = true
				relabel[v] = l
				rec(v + 1)
				used[l] = false
			}
		}
	}
	rec(1)
	return best
}

// TestCanonicalMatchesReference checks Canonical byte for byte against
// the slow reference on a pseudo-random population and its isomorphs.
func TestCanonicalMatchesReference(t *testing.T) {
	r := &lcg{s: 5}
	for i := 0; i < 400; i++ {
		p := randomPattern(r, testTypes, testLabels, 6, 3)
		for _, q := range []Pattern{p, permuteVars(r, p)} {
			if got, want := q.Canonical(), referenceCanonical(q); got != want {
				t.Fatalf("pattern %s:\n got %q\nwant %q", q, got, want)
			}
		}
	}
}

// relabelings returns every type-preserving, source-pinning relabeling of
// p, each with its actions reversed as well, so that both the variable
// numbering and the action order vary.
func relabelings(p Pattern) []Pattern {
	var out []Pattern
	n := len(p.Vars)
	perm := make([]VarID, n)
	used := make([]bool, n)
	var rec func(v int)
	rec = func(v int) {
		if v == n {
			q := Pattern{Vars: make([]taxonomy.Type, n)}
			for i, t := range p.Vars {
				q.Vars[perm[i]] = t
			}
			for i := len(p.Actions) - 1; i >= 0; i-- {
				a := p.Actions[i]
				q.Actions = append(q.Actions, AbstractAction{Op: a.Op, Src: perm[a.Src], Label: a.Label, Dst: perm[a.Dst]})
			}
			out = append(out, q)
			return
		}
		for to := 1; to < n; to++ {
			if !used[to] && p.Vars[to] == p.Vars[v] {
				used[to] = true
				perm[v] = VarID(to)
				rec(v + 1)
				used[to] = false
			}
		}
	}
	perm[0] = 0
	rec(1)
	return out
}

// groundRow realizes p with entity 100+i for variable i, and returns the
// row with the edges it makes: one "op label src dst" string per action.
func groundRow(p Pattern) (relational.Row, map[string]bool) {
	row := make(relational.Row, len(p.Vars))
	for i := range row {
		row[i] = relational.Value(100 + i)
	}
	edges := map[string]bool{}
	for _, a := range p.Actions {
		edges[fmt.Sprintf("%s %s %d %d", a.Op, a.Label, row[a.Src], row[a.Dst])] = true
	}
	return row, edges
}

// TestVariantIndependentOfMemberAndCoder checks the contract admission
// rests on. Every relabeling of a pattern, with its actions in another
// order, keyed by a Coder reused across the whole test and by a fresh
// one, yields the class's Canonical form as its key and the same variant.
// The variant serializes to that form under its own numbering, and lists
// its actions in an order that reaches each action's source first. The
// returned permutation carries a realization table's columns to the
// variant's, so every moved row still realizes it.
func TestVariantIndependentOfMemberAndCoder(t *testing.T) {
	r := &lcg{s: 11}
	patterns := []Pattern{
		// Two same-typed variables under different labels: a player's
		// national team and club.
		{
			Vars: []taxonomy.Type{"FootballPlayer", "SportsTeam", "SportsTeam"},
			Actions: []AbstractAction{
				{Op: action.Add, Src: 0, Label: "national_team", Dst: 1},
				{Op: action.Add, Src: 0, Label: "current_club", Dst: 2},
			},
		},
		transferPattern(),
	}
	for i := 0; i < 60; i++ {
		patterns = append(patterns, randomPattern(r, testTypes, testLabels, 5, 3))
	}
	var reused Coder
	for _, p := range patterns {
		canon := p.Canonical()
		var want Pattern
		for ri, q := range relabelings(p) {
			row, edges := groundRow(q)
			for ci, c := range []*Coder{&reused, {}} {
				key, perm := c.Key(q)
				if key != canon {
					t.Fatalf("%s: member %s under coder %d keys as %q, want Canonical %q", p, q, ci, key, canon)
				}
				v := c.Variant(q, perm)
				if ri == 0 && ci == 0 {
					want = v
					if got := v.serialization(); got != canon {
						t.Fatalf("%s: variant %s serializes to %q, want Canonical %q", p, v, got, canon)
					}
					reached := map[VarID]bool{SourceVar: true}
					for _, a := range v.Actions {
						if !reached[a.Src] {
							t.Fatalf("%s: variant %s joins %v before its source is reached", p, v, a)
						}
						reached[a.Dst] = true
					}
				} else if !reflect.DeepEqual(v, want) {
					t.Fatalf("%s: member %s under coder %d gives variant %s, want %s", p, q, ci, v, want)
				}
				tbl := relational.FromRows(q.VarNames(), []relational.Row{row})
				to := make([]int, len(perm))
				for i, pv := range perm {
					to[i] = int(pv)
				}
				tbl.Reorder(to)
				moved := tbl.Row(0)
				for _, a := range v.Actions {
					if e := fmt.Sprintf("%s %s %d %d", a.Op, a.Label, moved[a.Src], moved[a.Dst]); !edges[e] {
						t.Fatalf("%s: moved row %v does not realize %v of variant %s", q, moved, a, v)
					}
				}
				for i, val := range moved {
					if v.Vars[i] != q.Vars[int(val)-100] {
						t.Fatalf("%s: moved row puts %s's entity under variant variable %d of type %s", q, q.Vars[int(val)-100], i, v.Vars[i])
					}
				}
			}
		}
	}
}

// serialization renders p's Canonical-style serialization under its own
// numbering, with fmt.
func (p Pattern) serialization() string {
	lines := make([]string, len(p.Actions))
	for i, a := range p.Actions {
		lines[i] = fmt.Sprintf("%s|%s:%d|%s|%s:%d", a.Op, p.Vars[a.Src], a.Src, a.Label, p.Vars[a.Dst], a.Dst)
	}
	sort.Strings(lines)
	return strings.Join(lines, ";")
}
