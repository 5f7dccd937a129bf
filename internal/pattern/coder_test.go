package pattern

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"wiclean/internal/action"
	"wiclean/internal/taxonomy"
)

// lcg is a tiny deterministic generator for the property sweeps — no
// math/rand, so the package stays trivially inside the determinism lint's
// comfort zone and failures replay exactly.
type lcg struct{ s uint64 }

func (l *lcg) next(n int) int {
	l.s = l.s*6364136223846793005 + 1442695040888963407
	return int((l.s >> 33) % uint64(n))
}

// randomPattern builds a valid connected-ish pattern over the given type
// and label vocabulary: every variable beyond the source is introduced as
// the destination of some action, so Validate holds.
func randomPattern(r *lcg, types []taxonomy.Type, labels []action.Label, maxVars, extraActions int) Pattern {
	nVars := 2 + r.next(maxVars-1)
	p := Pattern{Vars: make([]taxonomy.Type, nVars)}
	for i := range p.Vars {
		p.Vars[i] = types[r.next(len(types))]
	}
	ops := []action.Op{action.Add, action.Remove}
	// One incoming action per non-source variable keeps everything used.
	for v := 1; v < nVars; v++ {
		p.Actions = append(p.Actions, AbstractAction{
			Op:    ops[r.next(2)],
			Src:   VarID(r.next(v)),
			Label: labels[r.next(len(labels))],
			Dst:   VarID(v),
		})
	}
	for i := 0; i < r.next(extraActions+1); i++ {
		a := AbstractAction{
			Op:    ops[r.next(2)],
			Src:   VarID(r.next(nVars)),
			Label: labels[r.next(len(labels))],
			Dst:   VarID(r.next(nVars)),
		}
		if !p.HasAction(a) {
			p.Actions = append(p.Actions, a)
		}
	}
	return p
}

// permuteVars returns an isomorphic copy of p with the non-source variables
// renamed by a pseudo-random permutation (actions re-pointed accordingly,
// action order shuffled too).
func permuteVars(r *lcg, p Pattern) Pattern {
	n := len(p.Vars)
	perm := make([]VarID, n)
	for i := range perm {
		perm[i] = VarID(i)
	}
	for i := n - 1; i > 1; i-- {
		j := 1 + r.next(i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	q := Pattern{Vars: make([]taxonomy.Type, n)}
	for i, t := range p.Vars {
		q.Vars[perm[i]] = t
	}
	for _, a := range p.Actions {
		q.Actions = append(q.Actions, AbstractAction{
			Op: a.Op, Src: perm[a.Src], Label: a.Label, Dst: perm[a.Dst],
		})
	}
	for i := len(q.Actions) - 1; i > 0; i-- {
		j := r.next(i + 1)
		q.Actions[i], q.Actions[j] = q.Actions[j], q.Actions[i]
	}
	return q
}

var (
	testTypes  = []taxonomy.Type{"Player", "Club", "League", "Person"}
	testLabels = []action.Label{"member_of", "plays_for", "born_in"}
)

// TestCoderKeyMatchesCanonicalClasses checks that the miner's key is the
// canonical form: on a pseudo-random pattern population with an isomorph
// of each, and on star patterns past the relabeling cap, one Coder reused
// across every call keys each pattern as exactly p.Canonical().
func TestCoderKeyMatchesCanonicalClasses(t *testing.T) {
	r := &lcg{s: 42}
	var pop []Pattern
	for i := 0; i < 300; i++ {
		p := randomPattern(r, testTypes, testLabels, 5, 3)
		if err := p.Validate(); err != nil {
			t.Fatalf("generator produced invalid pattern: %v", err)
		}
		pop = append(pop, p, permuteVars(r, p))
		if i%100 == 0 {
			pop = append(pop, star(9, testLabels[:1+i/100]))
		}
	}
	var c Coder
	for _, p := range pop {
		if key, _ := c.Key(p); key != p.Canonical() {
			t.Fatalf("pattern %s: key %q, want Canonical %q", p, key, p.Canonical())
		}
	}
}

// TestCoderKeyIsomorphInvariance hammers the direct property: a pattern and
// any variable-permuted copy produce identical keys.
func TestCoderKeyIsomorphInvariance(t *testing.T) {
	r := &lcg{s: 7}
	var c Coder
	for i := 0; i < 500; i++ {
		p := randomPattern(r, testTypes, testLabels, 6, 4)
		q := permuteVars(r, p)
		kp, _ := c.Key(p)
		kq, _ := c.Key(q)
		if kp != kq {
			t.Fatalf("iteration %d: isomorphic patterns keyed apart\np: %s\nq: %s", i, p, q)
		}
	}
}

// star is a Player source with n Club variables, one action to each,
// under labels taken in turn.
func star(n int, labels []action.Label) Pattern {
	p := Pattern{Vars: []taxonomy.Type{"Player"}}
	for v := 1; v <= n; v++ {
		p.Vars = append(p.Vars, "Club")
		p.Actions = append(p.Actions, AbstractAction{
			Op: action.Add, Src: 0, Label: labels[(v-1)%len(labels)], Dst: VarID(v),
		})
	}
	return p
}

// TestCoderGreedyFallbackAgreement drives the key through the relabeling
// cap (nine same-type fresh variables = 9! = 362880 permutations) and
// checks that it is still the canonical form, that identical patterns key
// together and that a distinct one keys apart.
func TestCoderGreedyFallbackAgreement(t *testing.T) {
	var c Coder
	p := star(9, []action.Label{"a", "b", "c"})
	q := star(9, []action.Label{"a", "b", "c"})
	canon := p.Canonical()
	if canon[0] != '~' {
		t.Fatalf("expected greedy fallback canonical key, got %q", canon)
	}
	kp, _ := c.Key(p)
	kq, _ := c.Key(q)
	if kp != canon {
		t.Fatalf("greedy key %q, want Canonical %q", kp, canon)
	}
	if kp != kq {
		t.Fatalf("identical greedy patterns keyed apart")
	}
	d := star(9, []action.Label{"a", "b", "z"})
	if kd, _ := c.Key(d); kd == kp || kd != d.Canonical() {
		t.Fatalf("distinct greedy pattern keyed %q, want its Canonical %q, apart from %q", kd, d.Canonical(), kp)
	}
}

// TestCanonicalCapsLinesSorted checks that the exact minimization's cap
// counts the action lines each relabeling writes and sorts. A source with
// eight same-type variables has 8! = 40320 relabelings, under the
// relabeling cap; with 128 actions that is 5.2 million lines, so it takes
// the greedy key. The same eight variables under six actions stay exact,
// as every pattern of at most six actions does. A type group too large to
// count in an int takes the greedy key too.
func TestCanonicalCapsLinesSorted(t *testing.T) {
	labels := make([]action.Label, 16)
	for i := range labels {
		labels[i] = action.Label(fmt.Sprintf("l%02d", i))
	}
	wide := star(8, labels[:1])
	wide.Actions = wide.Actions[:0]
	for _, l := range labels {
		for v := 1; v <= 8; v++ {
			wide.Actions = append(wide.Actions, AbstractAction{Op: action.Add, Src: 0, Label: l, Dst: VarID(v)})
		}
	}
	if len(wide.Vars) != 9 || len(wide.Actions) != 128 {
		t.Fatalf("wide pattern has %d variables and %d actions, want 9 and 128", len(wide.Vars), len(wide.Actions))
	}
	if key := wide.Canonical(); key[0] != '~' {
		t.Fatalf("9-variable, 128-action pattern keyed exactly: %.60q…", key)
	}

	// Six actions over the same nine variables: the source's action and
	// five between Clubs.
	narrow := star(8, labels[:1])
	narrow.Actions = []AbstractAction{
		{Op: action.Add, Src: 0, Label: "l00", Dst: 1},
		{Op: action.Add, Src: 2, Label: "l01", Dst: 3},
		{Op: action.Add, Src: 4, Label: "l01", Dst: 5},
		{Op: action.Remove, Src: 6, Label: "l01", Dst: 7},
		{Op: action.Add, Src: 8, Label: "l02", Dst: 1},
		{Op: action.Remove, Src: 3, Label: "l02", Dst: 8},
	}
	if err := narrow.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := narrow.Canonical(), referenceCanonical(narrow); got != want {
		t.Fatalf("6-action pattern keyed %q, want the exact %q", got, want)
	}

	if key := star(21, labels[:1]).Canonical(); key[0] != '~' {
		t.Fatalf("21 same-type variables keyed exactly: %.60q…", key)
	}
}

// TestCoderEmptyAndDegenerate covers the sentinel cases: the empty pattern
// and single-action patterns.
func TestCoderEmptyAndDegenerate(t *testing.T) {
	var c Coder
	if got, _ := c.Key(Pattern{}); got != "[]" {
		t.Fatalf("empty pattern key = %q, want %q", got, "[]")
	}
	key := func(p Pattern) string {
		k, _ := c.Key(p)
		return k
	}
	s1 := Singleton(action.Add, "Player", "plays_for", "Club")
	s2 := Singleton(action.Add, "Player", "plays_for", "Club")
	s3 := Singleton(action.Remove, "Player", "plays_for", "Club")
	if key(s1) != key(s2) {
		t.Fatalf("identical singletons keyed apart")
	}
	if key(s1) == key(s3) {
		t.Fatalf("+/− singletons keyed together")
	}
}

// TestCoderKeysLongPatternInTime keys a two-variable pattern of 32,000
// actions whose labels come in reverse order, on which a quadratic sort of
// the lines takes seconds. A model file can store such a pattern, and
// model.Read keys every stored pattern.
func TestCoderKeysLongPatternInTime(t *testing.T) {
	const n = 32000
	p := Pattern{Vars: []taxonomy.Type{"Player", "Club"}}
	for i := n - 1; i >= 0; i-- {
		p.Actions = append(p.Actions, AbstractAction{Op: action.Add, Src: 0, Label: action.Label(fmt.Sprintf("l%05d", i)), Dst: 1})
	}
	var c Coder
	start := time.Now()
	key, _ := c.Key(p)
	if d := time.Since(start); d > time.Second {
		t.Fatalf("keying %d actions took %v, want at most 1s", n, d)
	}
	if first, last := "+|Player:0|l00000|Club:1;", fmt.Sprintf(";+|Player:0|l%05d|Club:1", n-1); !strings.HasPrefix(key, first) || !strings.HasSuffix(key, last) {
		t.Fatalf("key runs %.40q … %.40q, want %q … %q", key, key[len(key)-40:], first, last)
	}
}
