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

// MostSpecific filters ps down to its ≺-minimal elements: the "most
// specific frequent patterns" selection of Algorithm 1, line 16. Duplicate
// (isomorphic) patterns are collapsed to one representative.
func MostSpecific(ps []Pattern, tax *taxonomy.Taxonomy) []Pattern {
	// Dedup first.
	seen := map[string]bool{}
	uniq := make([]Pattern, 0, len(ps))
	for _, p := range ps {
		k := p.Canonical()
		if !seen[k] {
			seen[k] = true
			uniq = append(uniq, p)
		}
	}
	var out []Pattern
	for i, p := range uniq {
		dominated := false
		for j, q := range uniq {
			if i == j {
				continue
			}
			// p is dominated if some other pattern is strictly more
			// specific than p (q ≺ p means p is obtainable from q, so p is
			// redundant). After the dedup no two patterns of uniq are
			// isomorphic, so q ≼ p already means q ≺ p.
			if Subsumes(p, q, tax) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	return out
}
