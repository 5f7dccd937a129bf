package pattern

import (
	"fmt"
	"sort"

	"wiclean/internal/action"
	"wiclean/internal/taxonomy"
)

// Template is an abstract action detached from any pattern: an edit shape
// (op, (srcType, label, dstType)) over the type hierarchy. The miner's
// abstract_actions[w] dictionary is a set of Templates; each has a
// two-column realization table of the concrete (src, dst) entity pairs
// edited that way inside the window.
type Template struct {
	Op      action.Op
	SrcType taxonomy.Type
	Label   action.Label
	DstType taxonomy.Type
}

// String renders the template.
func (t Template) String() string {
	return fmt.Sprintf("%s (%s, %s, %s)", t.Op, t.SrcType, t.Label, t.DstType)
}

// TemplatesOf computes the possible abstractions of a concrete action by
// traversing the type hierarchy of its source and target (§3: "the set of
// its possible abstractions can be easily computed by traversing the type
// hierarchy and replacing source(a) (resp. target(a)) by some variable of
// type ≥ type(source(a))"). maxLevels bounds how far above the most
// specific type the traversal climbs (-1 = unbounded); the taxonomy is
// typically ~8 levels deep, so the bound caps the candidate blow-up the
// paper warns about.
func TemplatesOf(a action.Action, reg *taxonomy.Registry, maxLevels int) []Template {
	tax := reg.Taxonomy()
	srcTypes := tax.AncestorsAbove(reg.TypeOf(a.Edge.Src), maxLevels)
	dstTypes := tax.AncestorsAbove(reg.TypeOf(a.Edge.Dst), maxLevels)
	out := make([]Template, 0, len(srcTypes)*len(dstTypes))
	for _, st := range srcTypes {
		for _, dt := range dstTypes {
			out = append(out, Template{Op: a.Op, SrcType: st, Label: a.Edge.Label, DstType: dt})
		}
	}
	return out
}

// AsSingleton converts the template to a one-action pattern with the
// template source as the distinguished source variable.
func (t Template) AsSingleton() Pattern {
	return Singleton(t.Op, t.SrcType, t.Label, t.DstType)
}

// Extension is one way of growing a pattern with a template, as enumerated
// in §4.2: the template's source glued to an existing same-type variable,
// and its target either glued to an existing same-type variable or
// introduced as a fresh variable. Pattern.Extend builds the extended
// pattern.
type Extension struct {
	SrcVar VarID // variable the template source is glued to
	DstVar VarID // variable the target is glued to, or the new variable
	NewVar bool  // whether DstVar is freshly introduced
}

// AppendExtensions appends every distinct extension of p with template t
// to dst and returns the extended slice, so a join worker can enumerate
// into a buffer it reuses. Gluing the source to an existing variable keeps
// the extended pattern connected w.r.t. the seed (every new node stays
// reachable from the source), which is why the enumeration never
// introduces a fresh source.
// Extensions that would duplicate an action already in p are skipped, as
// are self-loop gluings (Src == Dst), which cannot be realized by two
// distinct entities. Only the gluing sites are returned; the miner builds
// the pattern of a site with Extend once its realizations clear τ.
func (p Pattern) AppendExtensions(dst []Extension, t Template) []Extension {
	for sv := range p.Vars {
		if p.Vars[sv] != t.SrcType {
			continue
		}
		// Variant A: glue target to an existing variable of the same type.
		for dv := range p.Vars {
			if dv == sv || p.Vars[dv] != t.DstType {
				continue
			}
			if p.HasAction(AbstractAction{Op: t.Op, Src: VarID(sv), Label: t.Label, Dst: VarID(dv)}) {
				continue
			}
			dst = append(dst, Extension{SrcVar: VarID(sv), DstVar: VarID(dv)})
		}
		// Variant B: introduce the target as a fresh variable.
		dst = append(dst, Extension{SrcVar: VarID(sv), DstVar: VarID(len(p.Vars)), NewVar: true})
	}
	return dst
}

// Extend returns p grown with template t at extension site e (one that
// AppendExtensions enumerates): the fresh target variable, if any, is
// appended to the variables and the template's action to the actions. p is
// not modified.
func (p Pattern) Extend(t Template, e Extension) Pattern {
	np := p.Clone()
	if e.NewVar {
		np.Vars = append(np.Vars, t.DstType)
	}
	np.Actions = append(np.Actions, AbstractAction{Op: t.Op, Src: e.SrcVar, Label: t.Label, Dst: e.DstVar})
	return np
}

// CollidableVars returns the variables of p (excluding exclude) whose type
// is comparable with t, sorted. A realization must assign distinct entities
// to distinct variables (§3), and only variables with comparable types can
// ever receive the same entity, so fresh-variable extensions add inequality
// predicates against exactly these columns. (The paper phrases this as
// "inequality to all same type attributes"; comparing across abstraction
// levels as well is the precise reading of the realization definition.)
func (p Pattern) CollidableVars(tax *taxonomy.Taxonomy, t taxonomy.Type, exclude VarID) []VarID {
	var out []VarID
	for i, vt := range p.Vars {
		if VarID(i) != exclude && tax.Comparable(vt, t) {
			out = append(out, VarID(i))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
