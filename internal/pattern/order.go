package pattern

import (
	"wiclean/internal/taxonomy"
)

// Subsumes reports whether general can be obtained from specific by
// removing abstract actions, replacing variables with variables of a more
// general type, or both — i.e. specific ≼ general in the paper's
// specificity order (reflexive form of ≺, §3 "Partial Order of Patterns").
//
// Operationally: there is an injective mapping φ of general's variables to
// specific's variables with Vars_specific[φ(v)] ≤ Vars_general[v], under
// which each of general's actions maps to a distinct action of specific
// with the same op and label. φ must map source to source, since both
// patterns are anchored on the same seed-type source variable.
func Subsumes(general, specific Pattern, tax *taxonomy.Taxonomy) bool {
	if len(general.Actions) > len(specific.Actions) || len(general.Vars) > len(specific.Vars) {
		return false
	}
	if !tax.IsA(specific.Vars[SourceVar], general.Vars[SourceVar]) {
		return false
	}
	varMap := make([]VarID, len(general.Vars)) // general var -> specific var
	for i := range varMap {
		varMap[i] = -1
	}
	varUsed := make([]bool, len(specific.Vars))
	actUsed := make([]bool, len(specific.Actions))

	varMap[SourceVar] = SourceVar
	varUsed[SourceVar] = true

	var match func(ai int) bool
	match = func(ai int) bool {
		if ai == len(general.Actions) {
			return true
		}
		ga := general.Actions[ai]
		for sj, sa := range specific.Actions {
			if actUsed[sj] || sa.Op != ga.Op || sa.Label != ga.Label {
				continue
			}
			// Try binding ga.Src -> sa.Src and ga.Dst -> sa.Dst.
			bindSrc, okSrc := tryBind(ga.Src, sa.Src, general, specific, tax, varMap, varUsed)
			if !okSrc {
				continue
			}
			bindDst, okDst := tryBind(ga.Dst, sa.Dst, general, specific, tax, varMap, varUsed)
			if !okDst {
				unbind(ga.Src, bindSrc, varMap, varUsed)
				continue
			}
			actUsed[sj] = true
			if match(ai + 1) {
				return true
			}
			actUsed[sj] = false
			unbind(ga.Dst, bindDst, varMap, varUsed)
			unbind(ga.Src, bindSrc, varMap, varUsed)
		}
		return false
	}
	return match(0)
}

// tryBind attempts to bind general variable gv to specific variable sv.
// It returns whether this call created the binding (so the caller can undo
// exactly its own work) and whether the binding is consistent.
func tryBind(gv, sv VarID, general, specific Pattern, tax *taxonomy.Taxonomy, varMap []VarID, varUsed []bool) (created, ok bool) {
	if varMap[gv] != -1 {
		return false, varMap[gv] == sv
	}
	if varUsed[sv] {
		return false, false // injectivity
	}
	if !tax.IsA(specific.Vars[sv], general.Vars[gv]) {
		return false, false
	}
	varMap[gv] = sv
	varUsed[sv] = true
	return true, true
}

func unbind(gv VarID, created bool, varMap []VarID, varUsed []bool) {
	if created {
		varUsed[varMap[gv]] = false
		varMap[gv] = -1
	}
}

// StrictlyMoreSpecific reports p ≺ q: q is obtainable from p by a non-empty
// combination of action removals and type generalizations (equivalently,
// p ≼ q and p ≠ q up to isomorphism).
func StrictlyMoreSpecific(p, q Pattern, tax *taxonomy.Taxonomy) bool {
	return Subsumes(q, p, tax) && !p.Equal(q)
}

// MostSpecific returns the indexes, ascending, of the ≺-minimal elements
// of ps: the "most specific frequent patterns" selection of Algorithm 1,
// line 16. ps must hold one pattern per isomorphism class, as the miner's
// frequent store does; two isomorphic inputs subsume each other, and both
// are dropped.
//
// p is dominated when some other pattern q is at least as specific,
// Subsumes(p, q); between distinct classes q ≼ p already means q ≺ p. A
// pair is tested with Subsumes only when q has at least p's actions and
// variables and every (op, label) of p occurs in q, three conditions
// Subsumes needs.
func MostSpecific(ps []Pattern, tax *taxonomy.Taxonomy) []int {
	sigs := make([]uint64, len(ps))
	for i, p := range ps {
		sigs[i] = signature(p)
	}
	var out []int
	for i, p := range ps {
		dominated := false
		for j, q := range ps {
			if i == j || len(q.Actions) < len(p.Actions) || len(q.Vars) < len(p.Vars) || sigs[i]&^sigs[j] != 0 {
				continue
			}
			if Subsumes(p, q, tax) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, i)
		}
	}
	return out
}

// signature sets one of 64 bits per (op, label) of p's actions, chosen by
// an FNV-1a hash that murmur3's finalizer mixes, so every input byte
// reaches the chosen bit. Subsumes(p, q) maps each action of p to one of
// q with the same op and label, so it needs signature(p) &^ signature(q)
// == 0; pairs whose bits collide are left to Subsumes.
func signature(p Pattern) uint64 {
	var sig uint64
	for _, a := range p.Actions {
		h := uint64(14695981039346656037)
		h = (h ^ uint64(uint8(a.Op))) * 1099511628211
		for i := 0; i < len(a.Label); i++ {
			h = (h ^ uint64(a.Label[i])) * 1099511628211
		}
		h = (h ^ h>>33) * 0xff51afd7ed558ccd
		h = (h ^ h>>33) * 0xc4ceb9fe1a85ec53
		sig |= 1 << ((h ^ h>>33) % 64)
	}
	return sig
}
