package pattern

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"wiclean/internal/taxonomy"
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
// permutations of each same-type variable group is cheap; a safety cap on
// the work falls back to a deterministic greedy labeling for adversarial
// inputs, which may distinguish isomorphic patterns but never conflates
// distinct ones.
func (p Pattern) Canonical() string {
	var c Coder
	key, _ := c.Key(p)
	return key
}

// Coder computes canonical forms with buffers it reuses across calls: Key
// returns a pattern's canonical form, exactly Canonical(), with the
// relabeling to its class's canonical variant, and Variant builds that
// variant. The canonical form is the least serialization — one
// "op|type:n|label|type:n" line per action, the lines sorted and joined
// by ';' — over the relabelings. A Coder is not safe for concurrent use;
// the zero value is ready.
type Coder struct {
	lines          []codedLine
	cur, best      []byte
	found          bool // best holds a serialization of the current pattern
	relabel, least []VarID

	// order holds the non-source variables sorted by (type, index), so
	// each same-type group is a run; group g is order[bounds[g]:bounds[g+1]].
	order, bounds []int
	acts          []AbstractAction // Variant's relabeled actions, in p's order
}

// codedLine is one action's line of a serialization and the index of the
// action it renders.
type codedLine struct {
	text []byte
	act  int
}

// Key returns p's canonical form, exactly p.Canonical(), and the
// relabeling that turns p into its class's canonical variant: perm[i] is
// the variant's number for p's variable i. perm aliases the Coder's
// buffers until its next Key call.
func (c *Coder) Key(p Pattern) (key string, perm []VarID) {
	ser, least := c.minimize(p)
	return string(ser), least
}

// Variant returns the canonical variant of p's isomorphism class, given
// the relabeling Key returned for p. The variant is p renumbered by the
// relabeling that minimizes Canonical's serialization, with its actions in
// that serialization's line order, then in growth order, so every member
// of a class, whatever its variable numbering and action order, has the
// same variant. The choice orders by type and label names alone, so it
// depends on the class and on nothing a Coder saw before.
func (c *Coder) Variant(p Pattern, perm []VarID) Pattern {
	v := Pattern{Vars: make([]taxonomy.Type, len(p.Vars)), Actions: make([]AbstractAction, len(p.Actions))}
	for i, t := range p.Vars {
		v.Vars[perm[i]] = t
	}
	c.acts = c.acts[:0]
	for _, a := range p.Actions {
		c.acts = append(c.acts, AbstractAction{Op: a.Op, Src: perm[a.Src], Label: a.Label, Dst: perm[a.Dst]})
	}
	c.writeLines(Pattern{Vars: v.Vars, Actions: c.acts}, identity(len(v.Vars)))
	c.sortLines()
	for i, l := range c.lines {
		v.Actions[i] = c.acts[l.act]
	}
	growthOrder(v)
	return v
}

// growthOrder reorders p's actions, in place, the way extensions grow a
// pattern: each action's source is the pattern's source or the target of
// an earlier action, and among the actions that qualify the earliest one
// comes next. Consumers that walk a pattern's actions in stored order,
// binding variables as they go, then meet every action's source bound.
// A pattern not connected from its source keeps its unreachable actions
// at the end, in their order.
func growthOrder(p Pattern) {
	reached := make([]bool, len(p.Vars))
	if len(reached) > 0 {
		reached[SourceVar] = true
	}
	for next := range p.Actions {
		pick := next
		for i := next; i < len(p.Actions); i++ {
			if reached[p.Actions[i].Src] {
				pick = i
				break
			}
		}
		a := p.Actions[pick]
		copy(p.Actions[next+1:pick+1], p.Actions[next:pick])
		p.Actions[next] = a
		reached[a.Dst] = true
	}
}

// identity returns the relabeling that keeps every variable's number.
func identity(n int) []VarID {
	ids := make([]VarID, n)
	for i := range ids {
		ids[i] = VarID(i)
	}
	return ids
}

// The exact minimization writes and sorts one line per action for every
// relabeling it tries. Past either cap it takes the greedy labeling:
// maxRelabelings bounds the relabelings, and maxRelabelLines the lines
// over all of them. The line cap is the relabeling cap times six actions,
// the miner's default bound on a pattern (mining.DefaultMaxActions), so
// every pattern of at most six actions keys as it did under the
// relabeling cap alone.
const (
	maxRelabelings  = 50000
	maxRelabelLines = maxRelabelings * 6
)

// groupVars sorts p's non-source variables by (type, index) into c.order,
// marks the start of each same-type group in c.bounds, and reports whether
// enumerating every per-group permutation would exceed the safety caps.
// Groups come in type-name order and list their members by index.
func (c *Coder) groupVars(p Pattern) (exploded bool) {
	c.order = c.order[:0]
	for i := 1; i < len(p.Vars); i++ {
		c.order = append(c.order, i)
	}
	slices.SortFunc(c.order, func(a, b int) int {
		return cmp.Or(cmp.Compare(p.Vars[a], p.Vars[b]), cmp.Compare(a, b))
	})
	c.bounds = append(c.bounds[:0], 0)
	for i := range c.order {
		if i+1 == len(c.order) || p.Vars[c.order[i+1]] != p.Vars[c.order[i]] {
			c.bounds = append(c.bounds, i+1)
		}
	}
	// Count the relabelings one factor at a time, so the count stops at
	// the caps instead of overflowing.
	perms := 1
	for g := 0; g+1 < len(c.bounds); g++ {
		for k := 2; k <= c.bounds[g+1]-c.bounds[g]; k++ {
			perms *= k
			if perms > maxRelabelings || perms*len(p.Actions) > maxRelabelLines {
				return true
			}
		}
	}
	return false
}

// minimize returns p's least serialization and the relabeling that first
// reaches it in enumeration order (relabel[i] is the new number of p's
// variable i). A pattern past the caps takes the greedy labeling and a
// "~"-prefixed serialization. Both results alias the receiver's buffers
// until its next call.
func (c *Coder) minimize(p Pattern) ([]byte, []VarID) {
	n := len(p.Vars)
	if n == 0 {
		return append(c.best[:0], "[]"...), nil
	}
	c.relabel = slices.Grow(c.relabel[:0], n)[:n]
	c.least = slices.Grow(c.least[:0], n)[:n]
	if c.groupVars(p) {
		copy(c.least, p.greedyRelabel())
		c.best = c.serialize(append(c.best[:0], '~'), p, c.least)
		return c.best, c.least
	}
	c.relabel[SourceVar] = SourceVar
	c.found = false
	c.search(p, 0, 0)
	return c.best, c.least
}

// search serializes p under every type-preserving, source-pinning
// relabeling and keeps the least serialization in c.best, with the first
// relabeling to reach it in c.least. The source keeps 0, and group g takes
// the labels 1+bounds[g] .. bounds[g+1], permuted every way: search
// permutes c.order[k:] of group g in place, swapping each member into
// position k in turn and restoring the order as it returns. Labels must
// not depend on where a variable happened to sit in the original pattern
// — two isomorphic patterns can hold their FootballClub variable at
// different indices, and index-derived labels would tell them apart.
func (c *Coder) search(p Pattern, g, k int) {
	if g+1 == len(c.bounds) {
		c.cur = c.serialize(c.cur[:0], p, c.relabel)
		if !c.found || bytes.Compare(c.cur, c.best) < 0 {
			c.best = append(c.best[:0], c.cur...)
			copy(c.least, c.relabel)
			c.found = true
		}
		return
	}
	end := c.bounds[g+1]
	if k == end {
		for j := c.bounds[g]; j < end; j++ {
			c.relabel[c.order[j]] = VarID(1 + j)
		}
		c.search(p, g+1, end)
		return
	}
	for i := k; i < end; i++ {
		c.order[k], c.order[i] = c.order[i], c.order[k]
		c.search(p, g, k+1)
		c.order[k], c.order[i] = c.order[i], c.order[k]
	}
}

// serialize appends p's serialization under relabel to dst.
func (c *Coder) serialize(dst []byte, p Pattern, relabel []VarID) []byte {
	c.writeLines(p, relabel)
	c.sortLines()
	for i, line := range c.lines {
		if i > 0 {
			dst = append(dst, ';')
		}
		dst = append(dst, line.text...)
	}
	return dst
}

// writeLines renders one line per action of p under relabel into c.lines.
func (c *Coder) writeLines(p Pattern, relabel []VarID) {
	for len(c.lines) < len(p.Actions) {
		c.lines = append(c.lines, codedLine{})
	}
	c.lines = c.lines[:len(p.Actions)]
	for i, a := range p.Actions {
		line := append(c.lines[i].text[:0], a.Op.String()...)
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
		c.lines[i] = codedLine{text: line, act: i}
	}
}

// sortLines sorts c.lines by text, equal lines in action order: a stable
// O(n log n) sort, so a pattern of many actions keys in time.
func (c *Coder) sortLines() {
	slices.SortFunc(c.lines, func(a, b codedLine) int {
		return cmp.Or(bytes.Compare(a.text, b.text), cmp.Compare(a.act, b.act))
	})
}

// greedyRelabel is the deterministic fallback labeling by (type, degree
// signature) refinement; ties broken by original index.
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

// Equal reports pattern identity up to same-type variable isomorphism with
// pinned source.
func (p Pattern) Equal(q Pattern) bool {
	if len(p.Vars) != len(q.Vars) || len(p.Actions) != len(q.Actions) {
		return false
	}
	return p.Canonical() == q.Canonical()
}
