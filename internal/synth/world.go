package synth

import (
	"fmt"
	"sort"

	"wiclean/internal/action"
	"wiclean/internal/dump"
	"wiclean/internal/pattern"
	"wiclean/internal/taxonomy"
	"wiclean/internal/wikitext"
)

// Params configures world generation.
type Params struct {
	Seed         uint64
	Domain       Domain
	SeedEntities int

	// Span is the simulated revision year; zero means [0, Year).
	Span action.Window

	// NoiseRumors is the expected number of add-then-revert rumor pairs
	// per seed entity over the span (the Figure-1 R=0 rows).
	NoiseRumors float64
	// NoiseLoneEdits is the expected number of uncoordinated single edits
	// per seed entity over the span; these masquerade as partial patterns
	// and are the source of unverifiable signals in §6.3.
	NoiseLoneEdits float64

	// BenignPartialRate is the probability that an injected partial edit
	// is actually fine (e.g. a same-league transfer legitimately skips the
	// league update); benign partials are never corrected and a simulated
	// expert rejects them.
	BenignPartialRate float64
}

// Generation values that no caller varies.
const (
	// correctionRate is the share of injected errors the next-year log
	// fixes (the paper observed ≈70% corrected in 2019).
	correctionRate = 0.70

	// maxScenariosPerSeed caps how many distinct scenarios one seed
	// entity participates in over the span, high enough that draws stay
	// near-independent. Real entities rarely star in several update
	// patterns in one year; without the cap, independent scenario
	// sampling would make joint "pattern A and pattern B" combinations
	// frequent at wide windows, which real data does not exhibit.
	maxScenariosPerSeed = 6

	// distractors sizes a population of entities from unrelated types
	// (musicians and their albums, here) that edit each other during the
	// span, as a fraction of the seed count per pool. Wikipedia's edits
	// graph is dominated by such unrelated activity — it is exactly what
	// the full-graph mining variants must materialize and the incremental
	// construction never touches (the §6.2 small-data experiment).
	distractors = 0.5

	// distractorEdits is the expected number of edits per distractor
	// entity over the span.
	distractorEdits = 4.0
)

// DefaultParams returns the calibrated generation defaults.
func DefaultParams(d Domain, seeds int) Params {
	return Params{
		Seed:              1,
		Domain:            d,
		SeedEntities:      seeds,
		Span:              action.Window{Start: 0, End: action.Year},
		NoiseRumors:       1.0,
		NoiseLoneEdits:    0.10,
		BenignPartialRate: 0.05,
	}
}

// World is a generated universe: registry, revision history, ground truth.
type World struct {
	Domain   Domain
	Reg      *taxonomy.Registry
	History  *dump.History
	NextYear *dump.History // the simulated following-year corrections
	Seeds    []taxonomy.EntityID
	Span     action.Window
	Truth    []InjectedInstance
	Noise    int // noise actions emitted

	seedSet map[taxonomy.EntityID]bool // lazy cache for rolePool
}

// Generate builds a world from the parameters.
func Generate(p Params) (*World, error) {
	if p.SeedEntities <= 0 {
		return nil, fmt.Errorf("synth: SeedEntities %d <= 0", p.SeedEntities)
	}
	if p.Span.Width() <= 0 {
		p.Span = action.Window{Start: 0, End: action.Year}
	}
	tax := p.Domain.Taxonomy()
	for i, sc := range p.Domain.Catalog {
		if err := sc.Validate(tax); err != nil {
			return nil, fmt.Errorf("synth: catalog[%d]: %w", i, err)
		}
	}
	reg := taxonomy.NewRegistry(tax)
	rng := NewRand(p.Seed)

	w := &World{
		Domain:   p.Domain,
		Reg:      reg,
		History:  dump.NewHistory(reg),
		NextYear: dump.NewHistory(reg),
		Span:     p.Span,
	}

	// Seed entities, with the configured subtype sprinkled in.
	for i := 0; i < p.SeedEntities; i++ {
		t := p.Domain.SeedType
		if p.Domain.SeedSubType != "" && p.Domain.SeedSubTypeEvery > 0 && i%p.Domain.SeedSubTypeEvery == p.Domain.SeedSubTypeEvery-1 {
			t = p.Domain.SeedSubType
		}
		id := reg.MustAdd(fmt.Sprintf("%s %04d", p.Domain.SeedType, i), t)
		w.Seeds = append(w.Seeds, id)
	}
	// Related pools.
	for _, pool := range p.Domain.Pools {
		n := pool.Size(p.SeedEntities)
		for i := 0; i < n; i++ {
			reg.MustAdd(fmt.Sprintf("%s %04d", pool.Prefix, i), pool.Type)
		}
	}

	// Scenario instances. Seeds are globally rationed across scenarios and
	// participate at most once per scenario, so supports are window
	// unions, not products.
	busy := make(map[taxonomy.EntityID]int, len(w.Seeds))
	for si, sc := range p.Domain.Catalog {
		if sc.Ghost {
			continue // catalog-only pattern; realized by another scenario
		}
		w.emitScenario(rng, p, si, sc, busy)
	}
	// Noise.
	w.emitNoise(rng, p)
	// Unrelated-type activity.
	w.emitDistractors(rng)
	// Next-year corrections.
	w.emitCorrections(rng)
	return w, nil
}

// emitDistractors populates musician/album entities — types unreachable
// from the seed type — and records edits between them. Only the full-graph
// mining variants ever pay for these.
func (w *World) emitDistractors(rng *Rand) {
	tax := w.Reg.Taxonomy()
	tax.AddChain("Work", "MusicAlbum")
	tax.AddChain("Agent", "Person", "Artist", "MusicalArtist")
	tax.AddChain("Agent", "Organisation", "MusicBand")
	n := int(distractors * float64(len(w.Seeds)))
	if n < 4 {
		n = 4
	}
	var pools [3][]taxonomy.EntityID
	for i := 0; i < n; i++ {
		pools[0] = append(pools[0], w.Reg.MustAdd(fmt.Sprintf("Musician %04d", i), "MusicalArtist"))
		pools[1] = append(pools[1], w.Reg.MustAdd(fmt.Sprintf("Album %04d", i), "MusicAlbum"))
		pools[2] = append(pools[2], w.Reg.MustAdd(fmt.Sprintf("Band %04d", i), "MusicBand"))
	}
	span := int(w.Span.Width())
	// A broad label vocabulary: each (label, type pair, op) shape becomes
	// an abstract-action template, so the materialized full graph carries
	// a large candidate surface the incremental construction never sees —
	// Wikipedia's edits graph is dominated by exactly this kind of
	// unrelated variety ("the dense connectivity of the Wikipedia graph",
	// §6.2).
	verbs := []string{"performed", "wrote", "produced", "recorded", "mixed", "covered", "toured", "sampled"}
	nouns := []string{"with", "for", "on", "alongside", "against", "before", "after", "during"}
	var labels []action.Label
	for _, v := range verbs {
		for _, n := range nouns {
			labels = append(labels, action.Label(v+"_"+n))
		}
	}
	edits := int(distractorEdits * float64(3*n))
	for i := 0; i < edits; i++ {
		src := pools[rng.Intn(3)]
		dst := pools[rng.Intn(3)]
		a := action.Action{
			Op: action.Add,
			Edge: action.Edge{
				Src:   src[rng.Intn(len(src))],
				Label: labels[rng.Intn(len(labels))],
				Dst:   dst[rng.Intn(len(dst))],
			},
			T: w.Span.Start + action.Time(rng.Intn(span)),
		}
		if a.Edge.Src == a.Edge.Dst {
			continue
		}
		if rng.Bool(0.25) {
			a.Op = action.Remove
		}
		w.History.AddActions(a)
		w.Noise++
	}
}

// rolePool returns the candidate entities for a non-seed role of the given
// type. Seed entities are excluded when the type has its own pool — a
// predecessor or old-captain role filled by another *seed* would chain that
// seed's own scenario edits onto this instance's realization and fabricate
// multi-seed patterns real data does not show; dedicated pools (former
// senators, veteran players) play those roles instead.
func (w *World) rolePool(t taxonomy.Type) []taxonomy.EntityID {
	all := w.Reg.EntitiesOf(t)
	if w.seedSet == nil {
		w.seedSet = make(map[taxonomy.EntityID]bool, len(w.Seeds))
		for _, s := range w.Seeds {
			w.seedSet[s] = true
		}
	}
	nonSeed := make([]taxonomy.EntityID, 0, len(all))
	for _, id := range all {
		if !w.seedSet[id] {
			nonSeed = append(nonSeed, id)
		}
	}
	if len(nonSeed) > 0 {
		return nonSeed
	}
	return all
}

func (w *World) emitScenario(rng *Rand, p Params, si int, sc Scenario, busy map[taxonomy.EntityID]int) {
	usedHere := map[taxonomy.EntityID]bool{}
	for _, win := range sc.Windows(w.Span) {
		nPart := int(float64(len(w.Seeds))*sc.Participation + 0.5)
		if nPart < 1 {
			nPart = 1
		}
		// Eligible seeds: not already in this scenario, under the global
		// participation cap. Window-less scenarios spread their
		// participants over the whole span (their single pseudo-window) so
		// no real window ever holds enough support — that is what makes
		// them invisible to window-based mining.
		var eligible []taxonomy.EntityID
		for _, s := range w.Seeds {
			if !usedHere[s] && busy[s] < maxScenariosPerSeed {
				eligible = append(eligible, s)
			}
		}
		if len(eligible) == 0 {
			continue
		}
		for _, pi := range rng.Sample(len(eligible), nPart) {
			seed := eligible[pi]
			usedHere[seed] = true
			busy[seed]++
			w.emitInstance(rng, p, si, sc, seed, win)
		}
	}
}

func (w *World) emitInstance(rng *Rand, p Params, si int, sc Scenario, seed taxonomy.EntityID, win action.Window) {
	// Assign roles: role 0 is the seed, others drawn distinct.
	entities := make([]taxonomy.EntityID, len(sc.Roles))
	entities[0] = seed
	used := map[taxonomy.EntityID]bool{seed: true}
	for r := 1; r < len(sc.Roles); r++ {
		pool := w.rolePool(sc.Roles[r])
		if len(pool) == 0 {
			return // misconfigured pool; validated scenarios should not hit this
		}
		var pick taxonomy.EntityID
		for tries := 0; tries < 32; tries++ {
			pick = pool[rng.Intn(len(pool))]
			if !used[pick] {
				break
			}
		}
		if used[pick] {
			return // pool too small to satisfy distinctness
		}
		used[pick] = true
		entities[r] = pick
	}

	// Legitimate all-or-nothing variation: skipped steps are neither
	// emitted nor errors (a same-league move performs no league edits).
	skipped := map[int]bool{}
	for _, g := range sc.SkipGroups {
		if rng.Bool(g.Prob) {
			for _, i := range g.Steps {
				skipped[i] = true
			}
		}
	}

	// Choose the omitted step for an erroneous instance, among the steps
	// actually planned for this instance.
	omit := -1
	if rng.Bool(sc.ErrorRate) {
		total := 0
		for i, st := range sc.Steps {
			if !skipped[i] {
				total += st.OmitWeight
			}
		}
		if total > 0 {
			pick := rng.Intn(total)
			for i, st := range sc.Steps {
				if skipped[i] {
					continue
				}
				pick -= st.OmitWeight
				if pick < 0 {
					omit = i
					break
				}
			}
		}
	}

	inst := InjectedInstance{Scenario: si, Window: win, Entities: entities}
	width := float64(win.Width())
	for i, st := range sc.Steps {
		if skipped[i] {
			inst.Skipped = append(inst.Skipped, action.Action{
				Op:   st.Op,
				Edge: action.Edge{Src: entities[st.Src], Label: st.Label, Dst: entities[st.Dst]},
				T:    win.Start,
			})
			continue
		}
		lo, hi := st.TimeLo, st.TimeHi
		if lo == 0 && hi == 0 {
			hi = 1
		}
		t := win.Start + action.Time((lo+rng.Float64()*(hi-lo))*width)
		if t >= win.End {
			t = win.End - 1
		}
		a := action.Action{
			Op: st.Op,
			Edge: action.Edge{
				Src:   entities[st.Src],
				Label: st.Label,
				Dst:   entities[st.Dst],
			},
			T: t,
		}
		if i == omit {
			inst.Omitted = append(inst.Omitted, a)
			continue
		}
		inst.Actions = append(inst.Actions, a)
	}
	if inst.IsError() {
		inst.RealError = !rng.Bool(p.BenignPartialRate)
	}
	w.History.AddActions(inst.Actions...)
	w.Truth = append(w.Truth, inst)
}

// emitNoise adds rumor/revert pairs and uncoordinated lone edits.
func (w *World) emitNoise(rng *Rand, p Params) {
	span := int(w.Span.Width())
	if span <= 1 {
		return
	}
	all := w.Reg.All()
	emitCount := func(rate float64) int {
		n := int(rate)
		if rng.Bool(rate - float64(n)) {
			n++
		}
		return n
	}
	for _, seed := range w.Seeds {
		// Rumors: an edit and its revert, hours apart — reduction noise.
		for i := 0; i < emitCount(p.NoiseRumors); i++ {
			label := w.Domain.NoiseLabels[rng.Intn(len(w.Domain.NoiseLabels))]
			tgt := all[rng.Intn(len(all))]
			if tgt == seed {
				continue
			}
			t := w.Span.Start + action.Time(rng.Intn(span-1))
			gap := action.Time(rng.Intn(int(2*action.Day))) + 1
			if t+gap >= w.Span.End {
				gap = w.Span.End - t - 1
			}
			w.History.AddActions(
				action.Action{Op: action.Add, Edge: action.Edge{Src: seed, Label: label, Dst: tgt}, T: t},
				action.Action{Op: action.Remove, Edge: action.Edge{Src: seed, Label: label, Dst: tgt}, T: t + gap},
			)
			w.Noise += 2
		}
		// Lone edits: half outgoing from the seed, half incoming from a
		// random entity — unmatched halves of plausible patterns.
		for i := 0; i < emitCount(p.NoiseLoneEdits); i++ {
			label := w.Domain.NoiseLabels[rng.Intn(len(w.Domain.NoiseLabels))]
			other := all[rng.Intn(len(all))]
			if other == seed {
				continue
			}
			t := w.Span.Start + action.Time(rng.Intn(span))
			a := action.Action{Op: action.Add, Edge: action.Edge{Src: seed, Label: label, Dst: other}, T: t}
			if rng.Bool(0.5) {
				a.Edge.Src, a.Edge.Dst = other, seed
			}
			w.History.AddActions(a)
			w.Noise++
		}
	}
}

// emitCorrections builds the next-year log: a correctionRate share of the
// real injected errors get their omitted edits applied in the following
// weeks. Benign partials stay untouched.
func (w *World) emitCorrections(rng *Rand) {
	for i := range w.Truth {
		inst := &w.Truth[i]
		if !inst.IsError() || !inst.RealError {
			continue
		}
		if !rng.Bool(correctionRate) {
			continue
		}
		inst.Corrected = true
		for _, a := range inst.Omitted {
			a.T = w.Span.End + action.Time(rng.Intn(int(8*action.Week)))
			w.NextYear.AddActions(a)
		}
	}
}

// CatalogPatterns returns the ground-truth patterns of the domain catalog,
// in catalog order — the expert list quality evaluation compares against.
func (w *World) CatalogPatterns() []InjectedPattern {
	out := make([]InjectedPattern, len(w.Domain.Catalog))
	for i, sc := range w.Domain.Catalog {
		out[i] = InjectedPattern{
			Name:       sc.Name,
			Pattern:    sc.Pattern(),
			WindowLess: sc.Period <= 0,
		}
	}
	return out
}

// InjectedPattern pairs a catalog scenario name with its ground-truth
// pattern.
type InjectedPattern struct {
	Name       string
	Pattern    pattern.Pattern
	WindowLess bool
}

// ErrorStats summarizes the injected ground truth.
type ErrorStats struct {
	Instances int
	Errors    int
	Real      int
	Benign    int
	Corrected int
}

// TruthStats computes the injected ground-truth tallies.
func (w *World) TruthStats() ErrorStats {
	var s ErrorStats
	s.Instances = len(w.Truth)
	for _, inst := range w.Truth {
		if !inst.IsError() {
			continue
		}
		s.Errors++
		if inst.RealError {
			s.Real++
		} else {
			s.Benign++
		}
		if inst.Corrected {
			s.Corrected++
		}
	}
	return s
}

// RevisionDump renders the full history as wikitext revisions: per entity,
// one revision per edit, each containing the complete infobox after the
// edit. Feeding this through dump.IngestRevisions reproduces the paper's
// crawl-parse-diff preprocessing path bit-for-bit (up to link ordering).
func (w *World) RevisionDump() []dump.Revision {
	type ev struct {
		a action.Action
	}
	byEntity := map[taxonomy.EntityID][]ev{}
	for _, id := range w.History.EntitiesWithActions() {
		for _, a := range w.History.ActionsOf([]taxonomy.EntityID{id}, w.Span) {
			byEntity[a.Edge.Src] = append(byEntity[a.Edge.Src], ev{a})
		}
	}
	ids := make([]taxonomy.EntityID, 0, len(byEntity))
	for id := range byEntity {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	var revs []dump.Revision
	for _, id := range ids {
		evs := byEntity[id]
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].a.T < evs[j].a.T })
		name := w.Reg.Name(id)
		boxType := string(w.Reg.TypeOf(id))

		// Links whose first touch is a Remove existed before the span
		// (e.g. the old club a transfer deletes). They form the article's
		// baseline revision, stamped just before the span so window
		// filters exclude it.
		links := map[wikitext.Link]bool{}
		firstTouched := map[wikitext.Link]bool{}
		for _, e := range evs {
			l := wikitext.Link{Relation: string(e.a.Edge.Label), Target: w.Reg.Name(e.a.Edge.Dst)}
			if !firstTouched[l] {
				firstTouched[l] = true
				if e.a.Op == action.Remove {
					links[l] = true
				}
			}
		}
		if len(links) > 0 {
			base := make([]wikitext.Link, 0, len(links))
			for k := range links {
				base = append(base, k)
			}
			revs = append(revs, dump.Revision{
				Entity: name,
				T:      w.Span.Start - 1,
				Text:   wikitext.RenderArticle(name, boxType, base),
			})
		}
		for _, e := range evs {
			l := wikitext.Link{Relation: string(e.a.Edge.Label), Target: w.Reg.Name(e.a.Edge.Dst)}
			if e.a.Op == action.Add {
				links[l] = true
			} else {
				delete(links, l)
			}
			cur := make([]wikitext.Link, 0, len(links))
			for k := range links {
				cur = append(cur, k)
			}
			revs = append(revs, dump.Revision{
				Entity: name,
				T:      e.a.T,
				Text:   wikitext.RenderArticle(name, boxType, cur),
			})
		}
	}
	return revs
}
