package pattern

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"wiclean/internal/action"
	"wiclean/internal/taxonomy"
)

// mostSpecificOracle is Algorithm 1's line 16 as MostSpecific computed it
// before it took distinct classes: collapse isomorphic patterns to their
// first member by Canonical(), then drop every pattern that some other
// remaining pattern is at least as specific as, testing Subsumes over all
// pairs.
func mostSpecificOracle(ps []Pattern, tax *taxonomy.Taxonomy) []Pattern {
	uniq := dedupClasses(ps)
	var out []Pattern
	for i, p := range uniq {
		dominated := false
		for j, q := range uniq {
			if i != j && Subsumes(p, q, tax) {
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

// dedupClasses keeps the first pattern of each isomorphism class, in order.
func dedupClasses(ps []Pattern) []Pattern {
	seen := map[string]bool{}
	var uniq []Pattern
	for _, p := range ps {
		if k := p.Canonical(); !seen[k] {
			seen[k] = true
			uniq = append(uniq, p)
		}
	}
	return uniq
}

// checkAgainstOracle selects from the distinct classes of ps and compares
// the kept patterns, in order, with the oracle's over ps itself.
func checkAgainstOracle(t *testing.T, ps []Pattern, tax *taxonomy.Taxonomy) (uniq, kept int) {
	t.Helper()
	classes := dedupClasses(ps)
	var got []string
	for _, i := range MostSpecific(classes, tax) {
		got = append(got, classes[i].String())
	}
	var want []string
	for _, p := range mostSpecificOracle(ps, tax) {
		want = append(want, p.String())
	}
	if !slices.Equal(got, want) {
		t.Fatalf("MostSpecific over %d classes keeps\n%q\nthe oracle keeps\n%q\npopulation %v", len(classes), got, want, ps)
	}
	return len(classes), len(got)
}

// propTypes are propTaxonomy's types, roots included.
var propTypes = []taxonomy.Type{
	"Agent", "Person", "Athlete", "FootballPlayer",
	"Organisation", "SportsTeam", "FootballClub", "SportsLeague",
}

// randLabel draws a label: half the time one of three shared labels, so
// patterns of different origin subsume each other, otherwise one of 40
// rare ones. With both ops that makes 86 (op, label) pairs, more than a
// signature's 64 bits.
func randLabel(rng *rand.Rand) action.Label {
	if rng.Intn(2) == 0 {
		i := rng.Intn(3)
		return action.Label("abc"[i : i+1])
	}
	return action.Label(fmt.Sprintf("rare%02d", rng.Intn(40)))
}

func randOp(rng *rand.Rand) action.Op {
	if rng.Intn(2) == 0 {
		return action.Add
	}
	return action.Remove
}

// randBase builds a valid pattern of one to four actions from an Athlete
// or FootballPlayer source, each action leaving an existing variable.
func randBase(rng *rand.Rand) Pattern {
	p := Pattern{Vars: []taxonomy.Type{[]taxonomy.Type{"Athlete", "FootballPlayer"}[rng.Intn(2)]}}
	for n := 1 + rng.Intn(4); len(p.Actions) < n; {
		if q, ok := randExtend(rng, p); ok {
			p = q
		}
	}
	return p
}

// randExtend grows p by one action from an existing variable to an
// existing one or to a fresh variable of a random type, unless the action
// would be a self-loop or a duplicate.
func randExtend(rng *rand.Rand, p Pattern) (Pattern, bool) {
	src := VarID(rng.Intn(len(p.Vars)))
	q := p.Clone()
	dst := VarID(len(q.Vars))
	if len(q.Vars) > 1 && rng.Intn(2) == 0 {
		dst = VarID(rng.Intn(len(q.Vars)))
	} else {
		q.Vars = append(q.Vars, propTypes[rng.Intn(len(propTypes))])
	}
	a := AbstractAction{Op: randOp(rng), Src: src, Label: randLabel(rng), Dst: dst}
	if src == dst || q.HasAction(a) {
		return p, false
	}
	q.Actions = append(q.Actions, a)
	return q, true
}

// randRelative derives a pattern from p: a generalization of one variable
// one level up propTaxonomy, p with one action dropped, p grown by one
// action, or an isomorphic copy with its other variables renumbered and its
// actions reordered.
func randRelative(rng *rand.Rand, tax *taxonomy.Taxonomy, p Pattern) (Pattern, bool) {
	switch rng.Intn(4) {
	case 0:
		q := p.Clone()
		v := rng.Intn(len(q.Vars))
		parent := tax.Parent(q.Vars[v])
		if parent == "" || parent == taxonomy.Root {
			return p, false
		}
		q.Vars[v] = parent
		return q, true
	case 1:
		if len(p.Actions) < 2 {
			return p, false
		}
		q := p.Clone()
		d := rng.Intn(len(q.Actions))
		q.Actions = append(q.Actions[:d], q.Actions[d+1:]...)
		return dropUnusedVars(q)
	case 2:
		return randExtend(rng, p)
	default:
		perm := append([]int{0}, rng.Perm(len(p.Vars)-1)...)
		for i := 1; i < len(perm); i++ {
			perm[i]++
		}
		q := Pattern{Vars: make([]taxonomy.Type, len(p.Vars))}
		for v, t := range p.Vars {
			q.Vars[perm[v]] = t
		}
		for _, i := range rng.Perm(len(p.Actions)) {
			a := p.Actions[i]
			q.Actions = append(q.Actions, AbstractAction{Op: a.Op, Src: VarID(perm[a.Src]), Label: a.Label, Dst: VarID(perm[a.Dst])})
		}
		return q, true
	}
}

// dropUnusedVars renumbers p's used variables densely; it fails when the
// source is no longer used.
func dropUnusedVars(p Pattern) (Pattern, bool) {
	used := make([]bool, len(p.Vars))
	for _, a := range p.Actions {
		used[a.Src], used[a.Dst] = true, true
	}
	if !used[SourceVar] {
		return p, false
	}
	remap := make([]VarID, len(p.Vars))
	var vars []taxonomy.Type
	for i, t := range p.Vars {
		if used[i] {
			remap[i] = VarID(len(vars))
			vars = append(vars, t)
		}
	}
	for i, a := range p.Actions {
		p.Actions[i].Src, p.Actions[i].Dst = remap[a.Src], remap[a.Dst]
	}
	p.Vars = vars
	return p, true
}

// randPopulation grows a population from random bases and relatives of
// earlier members until it holds more than 64 distinct (op, label) pairs,
// then shuffles it.
func randPopulation(rng *rand.Rand, tax *taxonomy.Taxonomy) []Pattern {
	var ps []Pattern
	pairs := map[AbstractAction]bool{}
	for len(pairs) <= 64 {
		p := randBase(rng)
		if len(ps) > 0 && rng.Intn(3) > 0 {
			var ok bool
			if p, ok = randRelative(rng, tax, ps[rng.Intn(len(ps))]); !ok {
				continue
			}
		}
		ps = append(ps, p)
		for _, a := range p.Actions {
			pairs[AbstractAction{Op: a.Op, Label: a.Label}] = true
		}
	}
	rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
	return ps
}

// TestMostSpecificMatchesOracle compares the selection over distinct
// classes with the oracle on random populations that hold generalizations,
// sub- and super-patterns, isomorphic copies (deduplicated before the
// call), and more (op, label) pairs than a signature has bits.
func TestMostSpecificMatchesOracle(t *testing.T) {
	tax := propTaxonomy()
	rng := rand.New(rand.NewSource(23))
	var copies, dropped, collisions int
	for round := 0; round < 200; round++ {
		ps := randPopulation(rng, tax)
		for _, p := range ps {
			if err := p.Validate(); err != nil {
				t.Fatalf("generator made %v: %v", p, err)
			}
		}
		uniq, kept := checkAgainstOracle(t, ps, tax)
		copies += len(ps) - uniq
		dropped += uniq - kept
		for _, p := range ps {
			for _, q := range ps {
				if signature(p)&^signature(q) == 0 && !opLabelsWithin(p, q) {
					collisions++
				}
			}
		}
	}
	t.Logf("%d isomorphic copies, %d dominated classes, %d signature collisions", copies, dropped, collisions)
	if copies == 0 || dropped == 0 || collisions == 0 {
		t.Fatalf("populations too easy: %d isomorphic copies, %d dominated classes, %d signature collisions", copies, dropped, collisions)
	}
}

// opLabelsWithin reports whether every (op, label) of p occurs in q.
func opLabelsWithin(p, q Pattern) bool {
	for _, a := range p.Actions {
		if !slices.ContainsFunc(q.Actions, func(b AbstractAction) bool { return a.Op == b.Op && a.Label == b.Label }) {
			return false
		}
	}
	return true
}

// FuzzMostSpecific builds a population from the fuzz bytes, one
// randPattern per five bytes and its one-level generalization when the
// chunk's last byte is odd, and compares the selection over its distinct
// classes with the oracle.
func FuzzMostSpecific(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 2, 1, 3, 0, 1, 2, 0, 1, 1, 1, 1, 1})
	f.Add([]byte("most specific frequent patterns, line 16"))
	tax := propTaxonomy()
	f.Fuzz(func(t *testing.T, data []byte) {
		var ps []Pattern
		for len(data) > 0 && len(ps) < 64 {
			chunk := data[:min(5, len(data))]
			data = data[len(chunk):]
			p := randPattern(chunk)
			if p.Validate() != nil {
				continue
			}
			ps = append(ps, p)
			if chunk[len(chunk)-1]%2 == 1 {
				q := p.Clone()
				for i, typ := range q.Vars {
					if parent := tax.Parent(typ); parent != "" && parent != taxonomy.Root {
						q.Vars[i] = parent
					}
				}
				ps = append(ps, q)
			}
		}
		checkAgainstOracle(t, ps, tax)
	})
}
