// Package difftest is the differential wall of the relational engine: it
// replays entire mining pipelines — not isolated joins — through the index
// join PM runs and through the forced nested loop of the PM−join baseline,
// over all three synthetic domains at several scales plus one Figure 4
// world, at both ends of the JoinWorkers range, and asserts the outputs
// are identical: the full mining.Result encoding (patterns, scores,
// realization tables row for row, work counts except the comparisons the
// index saves) and the persisted model bytes. Its fuzz targets check
// single joins against a naive oracle that shares no code with the
// engine. The CI race job runs this package with -race, so the comparison
// doubles as a concurrency check on the join-worker pool and on the
// template indexes it reads.
package difftest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"wiclean/internal/action"
	"wiclean/internal/dump"
	"wiclean/internal/experiments"
	"wiclean/internal/mining"
	"wiclean/internal/model"
	"wiclean/internal/relational"
	"wiclean/internal/synth"
	"wiclean/internal/taxonomy"
	"wiclean/internal/windows"
)

// scales are the synthetic universe sizes (seed-entity counts) of the
// sweep: large enough that both join paths run real multi-row joins, small
// enough that the full matrix stays a unit test.
var scales = []int{20, 40, 60}

// world generates one domain's universe at one scale, deterministically.
func world(t *testing.T, d synth.Domain, scale int) *synth.World {
	t.Helper()
	p := synth.DefaultParams(d, scale)
	p.Seed = uint64(scale) // distinct but fixed per scale
	w, err := synth.Generate(p)
	if err != nil {
		t.Fatalf("synth %s scale %d: %v", d.Name, scale, err)
	}
	return w
}

// mineCase is one mining pipeline of the sweep: a store, its seeds and
// window, and the configuration both join paths run under.
type mineCase struct {
	store    mining.Store
	reg      *taxonomy.Registry
	seeds    []taxonomy.EntityID
	seedType taxonomy.Type
	window   action.Window
	cfg      mining.Config
}

// synthCase mines a whole synthetic world with the sweep's configuration:
// deep enough to admit multi-action patterns (so extensions run glued and
// fresh-variable joins, inequality predicates and dedups), bounded enough
// to stay fast.
func synthCase(w *synth.World) mineCase {
	cfg := mining.PM(0.2)
	cfg.MaxAbstraction = 0
	cfg.MaxActions = 4
	return mineCase{store: w.History, reg: w.Reg, seeds: w.Seeds, seedType: w.Domain.SeedType, window: w.Span, cfg: cfg}
}

// mine runs one full mining pipeline with the given join path and pool.
func mine(t *testing.T, c mineCase, strat relational.Strategy, jw int) *mining.Result {
	t.Helper()
	cfg := c.cfg
	cfg.Strategy = strat
	cfg.JoinWorkers = jw
	res, err := mining.Mine(c.store, c.seeds, c.seedType, c.window, cfg)
	if err != nil {
		t.Fatalf("mine: %v", err)
	}
	return res
}

// joinPaths are the two join paths of a case, named after the Strategy
// that selects them, with the join-worker counts each runs at. The index
// join at one join worker is the reference, mined before either path.
var joinPaths = []struct {
	name    string
	strat   relational.Strategy
	workers []int
}{
	{"hash", relational.HashStrategy, []int{8}},
	{"nestedloop", relational.NestedLoop, []int{1, 8}},
}

// checkJoinPaths mines c through the index join at one join worker as the
// reference, then runs one subtest per join path comparing each of its
// runs with the reference: Result encodings and model bytes must be equal.
// The comparison counts must be equal at every pool size of one path, and
// the index must make no more comparisons than the nested loop.
func checkJoinPaths(t *testing.T, c mineCase) {
	t.Helper()
	ref := mine(t, c, relational.HashStrategy, 1)
	if !slices.ContainsFunc(ref.AllFrequent, func(sp mining.ScoredPattern) bool { return sp.Pattern.Size() > 1 }) {
		t.Fatalf("universe mined no multi-action pattern; the differential run is vacuous")
	}
	refBytes, refModel := encodeResult(t, ref), modelBytes(t, c, ref)
	cmps := map[relational.Strategy]int64{relational.HashStrategy: ref.Stats.Join.Comparisons}
	for _, p := range joinPaths {
		t.Run(p.name, func(t *testing.T) {
			for _, jw := range p.workers {
				run := fmt.Sprintf("%s/jw%d", p.name, jw)
				res := mine(t, c, p.strat, jw)
				if prev, ok := cmps[p.strat]; ok && prev != res.Stats.Join.Comparisons {
					t.Errorf("%s: %d comparisons, %d at one join worker", run, res.Stats.Join.Comparisons, prev)
				}
				cmps[p.strat] = res.Stats.Join.Comparisons
				if got := encodeResult(t, res); !bytes.Equal(got, refBytes) {
					t.Errorf("%s: Result encoding diverges from hash/jw1\nref: %s\ngot: %s",
						run, truncate(refBytes), truncate(got))
				}
				if !bytes.Equal(modelBytes(t, c, res), refModel) {
					t.Errorf("%s: model bytes diverge from hash/jw1", run)
				}
			}
		})
	}
	if nl, ok := cmps[relational.NestedLoop]; ok && cmps[relational.HashStrategy] > nl {
		t.Errorf("the index join made %d comparisons, more than the nested loop's %d", cmps[relational.HashStrategy], nl)
	}
}

// encodedPattern is the canonical byte-comparable form of one scored
// pattern, realization table included row for row.
type encodedPattern struct {
	Canonical   string
	Frequency   float64
	SourceCount int
	Columns     []string
	Rows        []relational.Row
}

// encodedResult captures everything in a mining.Result except wall-clock
// durations, which differ run to run, and the join comparison count, which
// differs between join paths (checkJoinPaths compares it on its own).
type encodedResult struct {
	SeedType    taxonomy.Type
	SeedSize    int
	Window      action.Window
	Stats       mining.Stats
	Patterns    []encodedPattern
	AllFrequent []encodedPattern
	JoinJobs    int
}

// encodeResult renders a Result into deterministic bytes, so "the pipelines
// agree" is literally bytes.Equal.
func encodeResult(t *testing.T, res *mining.Result) []byte {
	t.Helper()
	enc := func(sps []mining.ScoredPattern) []encodedPattern {
		out := make([]encodedPattern, 0, len(sps))
		for _, sp := range sps {
			out = append(out, encodedPattern{
				Canonical:   sp.Pattern.Canonical(),
				Frequency:   sp.Frequency,
				SourceCount: sp.SourceCount,
				Columns:     sp.Realizations.Columns(),
				Rows:        sp.Realizations.Rows(),
			})
		}
		return out
	}
	stats := res.Stats
	stats.Preprocessing = 0
	stats.Mining = 0
	stats.Join.Comparisons = 0
	e := encodedResult{
		SeedType:    res.SeedType,
		SeedSize:    res.SeedSize,
		Window:      res.Window,
		Stats:       stats,
		Patterns:    enc(res.Patterns),
		AllFrequent: enc(res.AllFrequent),
		JoinJobs:    len(res.JoinJobs),
	}
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatalf("encoding result: %v", err)
	}
	return b
}

// modelBytes persists the result through the real model serialization — the
// bytes a saved model file would hold.
func modelBytes(t *testing.T, c mineCase, res *mining.Result) []byte {
	t.Helper()
	o := &windows.Outcome{
		SeedType: res.SeedType,
		Seeds:    res.Seeds,
		Span:     res.Window,
		Width:    res.Window.Width(),
		Tau:      c.cfg.Tau,
		Windows:  []windows.WindowResult{{Window: res.Window, Result: res}},
	}
	for _, sp := range res.Patterns {
		o.Discovered = append(o.Discovered, windows.DiscoveredPattern{
			Pattern:     sp.Pattern,
			Frequency:   sp.Frequency,
			SourceCount: sp.SourceCount,
			Window:      res.Window,
			Width:       res.Window.Width(),
			Tau:         c.cfg.Tau,
		})
	}
	var buf bytes.Buffer
	if err := model.Write(&buf, model.Snapshot(o, c.reg, model.Provenance{})); err != nil {
		t.Fatalf("model write: %v", err)
	}
	return buf.Bytes()
}

// TestIndexJoinMatchesNestedLoop is the wall itself: every synthetic
// domain at every scale, mined through the index join and through the
// forced nested loop, each at JoinWorkers 1 and 8, must give one Result
// encoding and one model. Each case has one subtest per join path.
// Frequencies, realization row order, work counts — any drift fails as a
// byte mismatch.
func TestIndexJoinMatchesNestedLoop(t *testing.T) {
	for _, d := range []synth.Domain{synth.Soccer(), synth.Cinematography(), synth.USPoliticians()} {
		for _, scale := range scales {
			t.Run(fmt.Sprintf("%s/scale%d", d.Name, scale), func(t *testing.T) {
				checkJoinPaths(t, synthCase(world(t, d, scale)))
			})
		}
	}
}

// TestIndexJoinMatchesNestedLoopFig4 runs the wall on the world of Figure
// 4(b) at τ 0.4, built as Fig4b builds it: Soccer, 500 seeds, the transfer
// month. Its joins are the sweep's largest, and the index skips all but
// a fraction of a percent of the nested loop's comparisons.
func TestIndexJoinMatchesNestedLoopFig4(t *testing.T) {
	if testing.Short() {
		t.Skip("mines a 500-seed world four times")
	}
	ecfg := experiments.DefaultConfig()
	w, err := experiments.BuildWorld(ecfg, synth.Soccer(), 500)
	if err != nil {
		t.Fatal(err)
	}
	cfg := mining.PM(0.4)
	cfg.MaxAbstraction = ecfg.Abstraction
	checkJoinPaths(t, mineCase{
		store:    w.Store,
		reg:      w.Reg,
		seeds:    w.Seeds,
		seedType: w.Domain.SeedType,
		window:   action.Window{Start: 4 * action.Week, End: 8 * action.Week},
		cfg:      cfg,
	})
}

// TestPermutedIngestOrderModelBytes is the ingest-order property: two
// universes holding the same actions fed to the store in different orders
// must persist byte-identical models. Realization row order may follow
// ingest order (equal-timestamp actions keep insertion order), but the
// model's canonical forms and sorted pattern records must not.
func TestPermutedIngestOrderModelBytes(t *testing.T) {
	w := world(t, synth.Soccer(), scales[0])
	fwd := synthCase(w)
	forward := mine(t, fwd, relational.HashStrategy, 1)
	fwdModel := modelBytes(t, fwd, forward)

	// Rebuild the same universe with every entity's actions fed in reverse.
	bwd := synthCase(reingestReversed(t, world(t, synth.Soccer(), scales[0])))
	backward := mine(t, bwd, relational.HashStrategy, 1)
	if !bytes.Equal(fwdModel, modelBytes(t, bwd, backward)) {
		t.Fatalf("model bytes depend on store ingest order")
	}
	if len(forward.Patterns) == 0 {
		t.Fatalf("universe mined no most-specific patterns; the property is vacuous")
	}
}

// reingestReversed rebuilds the world's history with the global action list
// reversed before ingestion, permuting the relative order of equal-time
// actions (AddActions sorts stably by time, so only ties can move — which
// is exactly the freedom a store implementation has).
func reingestReversed(t *testing.T, w *synth.World) *synth.World {
	t.Helper()
	all := w.History.AllActions(w.Span)
	for i, j := 0, len(all)-1; i < j; i, j = i+1, j-1 {
		all[i], all[j] = all[j], all[i]
	}
	h := dump.NewHistory(w.Reg)
	h.AddActions(all...)
	fresh := *w
	fresh.History = h
	return &fresh
}

func truncate(b []byte) []byte {
	if len(b) > 2000 {
		return append(append([]byte{}, b[:2000]...), "…"...)
	}
	return b
}
