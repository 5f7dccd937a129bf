package pattern

import (
	"bytes"
	"slices"

	"wiclean/internal/action"
	"wiclean/internal/intern"
	"wiclean/internal/taxonomy"
)

// Coder produces compact canonical keys: the same equivalence classes as
// Pattern.Canonical — two patterns get equal keys iff their Canonical
// strings are equal — but encoded as uvarint dictionary IDs instead of
// fmt.Sprintf lines, so the miner's admit/frequent/tested hot path stops
// paying for string formatting of type and label names on every candidate.
//
// Equivalence with Canonical holds by construction: Key minimizes over
// exactly the permutation set Canonical enumerates (shared permGroups and
// eachRelabel, same 50000-permutation cap with the same greedyRelabel
// fallback), and both serializations are injective functions
// of the relabeled action multiset — Canonical's parseable "op|type:n|…"
// lines, Key's self-delimiting byte records sorted and concatenated. Two
// minima over the same set of multisets, each under an injective encoding,
// induce the same partition even though the argmin representative may
// differ between the orderings.
//
// A Coder interns lazily into its dictionary and keeps per-call scratch
// buffers, so it is NOT goroutine-safe. The miner calls it only from serial
// phases (seeding, admit/merge, result, relative seeding), never from join
// workers; the resulting dictionary contents are a function of the
// deterministic admission order alone.
type Coder struct {
	dict *intern.Dict

	// Per-call scratch, reused across Key calls to keep the hot path at one
	// allocation (the final string copy).
	acts    []codedAction
	lines   [][]byte
	relabel []VarID
	cur     []byte
	best    []byte

	// names serves Variant, which orders by names rather than IDs.
	names nameOrder
}

// codedAction caches an action's vocabulary IDs, resolved once per Key
// call; only the relabel numbers change across permutations.
type codedAction struct {
	op                        byte
	srcType, labelID, dstType uint32
	src, dst                  VarID
}

// NewCoder returns a Coder writing into dict; a nil dict gets a fresh one.
func NewCoder(dict *intern.Dict) *Coder {
	if dict == nil {
		dict = intern.NewDict()
	}
	return &Coder{dict: dict}
}

// Dict exposes the backing dictionary (for size gauges).
func (c *Coder) Dict() *intern.Dict { return c.dict }

// opByte mirrors action.Op.String's one-byte rendering.
func opByte(op action.Op) byte {
	switch op {
	case action.Add:
		return '+'
	case action.Remove:
		return '-'
	}
	return '?'
}

// Key returns the compact canonical key of p. Keys from the exact
// minimization start with an op byte ('+', '-' or '?'); greedy-fallback
// keys carry the same '~' prefix as Canonical's, so the two key kinds can
// never collide. The empty pattern keys as "[]", which no action record
// can produce either.
func (c *Coder) Key(p Pattern) string {
	n := len(p.Vars)
	if n == 0 {
		return "[]"
	}
	if cap(c.acts) < len(p.Actions) {
		c.acts = make([]codedAction, len(p.Actions))
		c.lines = make([][]byte, len(p.Actions))
	}
	c.acts = c.acts[:len(p.Actions)]
	c.lines = c.lines[:len(p.Actions)]
	for i, a := range p.Actions {
		c.acts[i] = codedAction{
			op:      opByte(a.Op),
			srcType: c.dict.Intern(string(p.Vars[a.Src])),
			labelID: c.dict.Intern(string(a.Label)),
			dstType: c.dict.Intern(string(p.Vars[a.Dst])),
			src:     a.Src,
			dst:     a.Dst,
		}
	}

	keys, groups, exploded := p.permGroups()
	if exploded {
		c.cur = c.serializeInto(c.cur[:0], p.greedyRelabel())
		return "~" + string(c.cur)
	}

	if cap(c.relabel) < n {
		c.relabel = make([]VarID, n)
	}
	c.best = c.best[:0]
	first := true
	eachRelabel(keys, groups, c.relabel[:n], func() {
		c.cur = c.serializeInto(c.cur[:0], c.relabel[:n])
		if first || bytes.Compare(c.cur, c.best) < 0 {
			c.best = append(c.best[:0], c.cur...)
			first = false
		}
	})
	return string(c.best)
}

// Variant returns the canonical variant of p's isomorphism class and the
// relabeling that turns p into it: perm[i] is the variant's number for p's
// variable i. The variant is p renumbered by the relabeling that minimizes
// Canonical's serialization, with its actions in that serialization's line
// order, so every member of a class, whatever its variable numbering and
// action order, has the same variant. The choice orders by type and label
// names. Key's minimum would not do: it orders by dictionary IDs, which a
// dictionary hands out in the order it first sees the names, so two Coders
// could pick different members of one class.
func (c *Coder) Variant(p Pattern) (Pattern, []VarID) {
	_, least := c.names.minimize(p)
	perm := slices.Clone(least)
	v := Pattern{Vars: make([]taxonomy.Type, len(p.Vars)), Actions: make([]AbstractAction, len(p.Actions))}
	for i, t := range p.Vars {
		v.Vars[perm[i]] = t
	}
	for i, a := range p.Actions {
		v.Actions[i] = AbstractAction{Op: a.Op, Src: perm[a.Src], Label: a.Label, Dst: perm[a.Dst]}
	}
	c.names.writeLines(v, identity(len(v.Vars)))
	c.names.sortLines(v.Actions)
	growthOrder(v)
	return v, perm
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

// serializeInto appends the compact serialization of the cached actions
// under relabel: one self-delimiting record per action (op byte, then
// uvarints for source type ID, source label number, edge label ID, dst type
// ID, dst label number), records byte-sorted and concatenated. Sorting a
// sequence of self-delimiting records keeps the encoding injective in the
// action multiset without needing separators.
func (c *Coder) serializeInto(dst []byte, relabel []VarID) []byte {
	for i, a := range c.acts {
		line := c.lines[i][:0]
		line = append(line, a.op)
		line = intern.AppendID(line, a.srcType)
		line = intern.AppendID(line, uint32(relabel[a.src]))
		line = intern.AppendID(line, a.labelID)
		line = intern.AppendID(line, a.dstType)
		line = intern.AppendID(line, uint32(relabel[a.dst]))
		c.lines[i] = line
	}
	// Insertion sort: patterns hold a handful of actions, and sort.Slice's
	// closure setup would dominate at this size.
	for i := 1; i < len(c.lines); i++ {
		for j := i; j > 0 && bytes.Compare(c.lines[j], c.lines[j-1]) < 0; j-- {
			c.lines[j], c.lines[j-1] = c.lines[j-1], c.lines[j]
		}
	}
	for _, line := range c.lines {
		dst = append(dst, line...)
	}
	return dst
}
