// Package pattern implements the paper's §3 pattern model: abstract actions
// over type variables, connected patterns w.r.t. a seed type, identity up to
// same-type variable isomorphism, the specificity partial order ≺ (action
// removal and/or type generalization), and the abstraction of concrete
// actions across the type hierarchy.
package pattern

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"wiclean/internal/action"
	"wiclean/internal/taxonomy"
)

// VarID indexes a type variable within a pattern.
type VarID int

// SourceVar is the distinguished source variable (§3, Definition 3.1): by
// construction every pattern's variable 0 is the seed-type node from which
// all other variables are reachable. The miner starts singletons with the
// seed entity as variable 0 and every extension preserves the invariant.
const SourceVar VarID = 0

// AbstractAction is an edit over type variables: (op, (t', l, t”)) with the
// variables identified by index into the owning pattern's Vars.
type AbstractAction struct {
	Op    action.Op
	Src   VarID
	Label action.Label
	Dst   VarID
}

// Pattern is a set of abstract actions over typed variables. Vars[i] is the
// type of variable i; Vars[SourceVar] is the distinguished source.
//
// Patterns are treated as immutable values: extension operations return new
// patterns and never mutate their receiver.
type Pattern struct {
	Vars    []taxonomy.Type
	Actions []AbstractAction
}

// Singleton builds the one-action pattern (op, (srcType, label, dstType))
// with the source as variable 0.
func Singleton(op action.Op, srcType taxonomy.Type, label action.Label, dstType taxonomy.Type) Pattern {
	return Pattern{
		Vars:    []taxonomy.Type{srcType, dstType},
		Actions: []AbstractAction{{Op: op, Src: 0, Label: label, Dst: 1}},
	}
}

// Size returns the number of abstract actions.
func (p Pattern) Size() int { return len(p.Actions) }

// NumVars returns the number of type variables.
func (p Pattern) NumVars() int { return len(p.Vars) }

// Validate checks structural invariants: at least one action, all variable
// references in range, every variable used by some action.
func (p Pattern) Validate() error {
	if len(p.Actions) == 0 {
		return fmt.Errorf("pattern: no actions")
	}
	used := make([]bool, len(p.Vars))
	for _, a := range p.Actions {
		if int(a.Src) < 0 || int(a.Src) >= len(p.Vars) || int(a.Dst) < 0 || int(a.Dst) >= len(p.Vars) {
			return fmt.Errorf("pattern: action %v references variable out of range", a)
		}
		used[a.Src] = true
		used[a.Dst] = true
	}
	for i, u := range used {
		if !u {
			return fmt.Errorf("pattern: variable %d (%s) unused", i, p.Vars[i])
		}
	}
	return nil
}

// Clone deep-copies the pattern.
func (p Pattern) Clone() Pattern {
	vars := make([]taxonomy.Type, len(p.Vars))
	copy(vars, p.Vars)
	acts := make([]AbstractAction, len(p.Actions))
	copy(acts, p.Actions)
	return Pattern{Vars: vars, Actions: acts}
}

// HasAction reports whether the exact abstract action is already present.
func (p Pattern) HasAction(a AbstractAction) bool {
	for _, b := range p.Actions {
		if a == b {
			return true
		}
	}
	return false
}

// varNames caches the column names of the first variables; patterns rarely
// hold more (MaxActions bounds them), and extension jobs ask for the name
// of every fresh variable on the hot path.
var varNames = [...]string{
	"v0", "v1", "v2", "v3", "v4", "v5", "v6", "v7",
	"v8", "v9", "v10", "v11", "v12", "v13", "v14", "v15",
}

// VarName returns the relational column name for variable v, e.g. "v0".
// Realization tables use these as attribute names.
func VarName(v VarID) string {
	if v >= 0 && int(v) < len(varNames) {
		return varNames[v]
	}
	return fmt.Sprintf("v%d", v)
}

// VarNames returns the column names for all variables, in order.
func (p Pattern) VarNames() []string {
	out := make([]string, len(p.Vars))
	for i := range p.Vars {
		out[i] = VarName(VarID(i))
	}
	return out
}

// TypeSet returns the distinct variable types of the pattern, sorted. The
// incremental graph construction of Algorithm 1 (line 4) scans these for
// "new type names found in patterns[w]".
func (p Pattern) TypeSet() []taxonomy.Type {
	seen := map[taxonomy.Type]bool{}
	for _, t := range p.Vars {
		seen[t] = true
	}
	out := make([]taxonomy.Type, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ConnectedFrom reports whether every variable is reachable from v along
// directed action edges (src → dst).
func (p Pattern) ConnectedFrom(v VarID) bool {
	if int(v) >= len(p.Vars) {
		return false
	}
	adj := make([][]VarID, len(p.Vars))
	for _, a := range p.Actions {
		adj[a.Src] = append(adj[a.Src], a.Dst)
	}
	seen := make([]bool, len(p.Vars))
	stack := []VarID{v}
	seen[v] = true
	n := 1
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nx := range adj[cur] {
			if !seen[nx] {
				seen[nx] = true
				n++
				stack = append(stack, nx)
			}
		}
	}
	return n == len(p.Vars)
}

// IsConnected implements Definition 3.1: the pattern is connected w.r.t.
// seed type t iff some variable comparable with t reaches every other
// variable. It returns the smallest such variable as the distinguished
// source.
func (p Pattern) IsConnected(tax *taxonomy.Taxonomy, t taxonomy.Type) (VarID, bool) {
	for i, vt := range p.Vars {
		if tax.Comparable(vt, t) && p.ConnectedFrom(VarID(i)) {
			return VarID(i), true
		}
	}
	return -1, false
}

// String renders the pattern in the paper's notation, e.g.
// {+, (FootballPlayer_0, current_club, FootballClub_1)}. It writes the
// bytes "{%s, (%s_%d, %s, %s_%d)}" formats per action without going
// through fmt: the miner sorts every frequent pattern by its notation.
func (p Pattern) String() string {
	// The brackets, then each action's names with 20 bytes for its
	// punctuation and two variable numbers.
	n := 2
	for _, a := range p.Actions {
		n += len(p.Vars[a.Src]) + len(a.Label) + len(p.Vars[a.Dst]) + 20
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteByte('[')
	for i, a := range p.Actions {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteByte('{')
		b.WriteString(a.Op.String())
		b.WriteString(", (")
		b.WriteString(string(p.Vars[a.Src]))
		b.WriteByte('_')
		b.WriteString(strconv.Itoa(int(a.Src)))
		b.WriteString(", ")
		b.WriteString(string(a.Label))
		b.WriteString(", ")
		b.WriteString(string(p.Vars[a.Dst]))
		b.WriteByte('_')
		b.WriteString(strconv.Itoa(int(a.Dst)))
		b.WriteString(")}")
	}
	b.WriteByte(']')
	return b.String()
}
