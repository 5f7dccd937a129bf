// Package difftest is the differential wall for the columnar relational
// rewrite: it replays entire mining pipelines — not isolated joins — on the
// new columnar engine and on the retained row-oriented reference
// implementation (internal/relational/rowref), across every join strategy,
// several synthetic universe scales and both ends of the JoinWorkers range,
// and asserts the outputs are byte-identical: the full mining.Result
// encoding (patterns, scores, realization tables row for row, join stats)
// and the persisted model bytes. The CI race job runs this package with
// -race, so the comparison doubles as a concurrency check on both engines.
package difftest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"wiclean/internal/action"
	"wiclean/internal/dump"
	"wiclean/internal/mining"
	"wiclean/internal/model"
	"wiclean/internal/relational"
	"wiclean/internal/relational/rowref"
	"wiclean/internal/synth"
	"wiclean/internal/taxonomy"
	"wiclean/internal/windows"
)

// scales are the synthetic universe sizes (seed-entity counts) of the
// sweep: large enough that every strategy runs real multi-row joins, small
// enough that the full matrix stays a unit test.
var scales = []int{20, 40, 60}

// world generates the soccer universe at one scale, deterministically.
func world(t *testing.T, scale int) *synth.World {
	t.Helper()
	p := synth.DefaultParams(synth.Soccer(), scale)
	p.Seed = uint64(scale) // distinct but fixed per scale
	w, err := synth.Generate(p)
	if err != nil {
		t.Fatalf("synth scale %d: %v", scale, err)
	}
	return w
}

// mineConfig is the pipeline configuration of the sweep: deep enough to
// admit multi-action patterns (so extensions run glued and fresh-variable
// joins, inequality predicates and dedups), bounded enough to stay fast.
func mineConfig(strat relational.Strategy, jw int, impl relational.Impl) mining.Config {
	cfg := mining.PM(0.2)
	cfg.MaxAbstraction = 0
	cfg.MaxActions = 4
	cfg.Strategy = strat
	cfg.JoinWorkers = jw
	cfg.JoinBackend = impl
	return cfg
}

// mine runs one full mining pipeline over the world's span.
func mine(t *testing.T, w *synth.World, cfg mining.Config) *mining.Result {
	t.Helper()
	res, err := mining.Mine(w.History, w.Seeds, w.Domain.SeedType, w.Span, cfg)
	if err != nil {
		t.Fatalf("mine: %v", err)
	}
	return res
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
// durations (which legitimately differ run to run).
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
func modelBytes(t *testing.T, w *synth.World, res *mining.Result) []byte {
	t.Helper()
	o := &windows.Outcome{
		SeedType: res.SeedType,
		Seeds:    res.Seeds,
		Span:     res.Window,
		Width:    res.Window.Width(),
		Tau:      0.2,
		Windows:  []windows.WindowResult{{Window: res.Window, Result: res}},
	}
	for _, sp := range res.Patterns {
		o.Discovered = append(o.Discovered, windows.DiscoveredPattern{
			Pattern:     sp.Pattern,
			Frequency:   sp.Frequency,
			SourceCount: sp.SourceCount,
			Window:      res.Window,
			Width:       res.Window.Width(),
			Tau:         0.2,
		})
	}
	var buf bytes.Buffer
	if err := model.Write(&buf, model.Snapshot(o, w.Reg, model.Provenance{})); err != nil {
		t.Fatalf("model write: %v", err)
	}
	return buf.Bytes()
}

// strategies names every join strategy the engine implements. AutoStrategy
// exercises the planner choosing per join; the forced strategies pin each
// physical algorithm.
var strategies = []struct {
	name  string
	strat relational.Strategy
}{
	{"auto", relational.AutoStrategy},
	{"hash", relational.HashStrategy},
	{"sortmerge", relational.SortMerge},
	{"nestedloop", relational.NestedLoop},
}

// TestColumnarMatchesRowRefAcrossStrategies is the wall itself: for every
// (scale, strategy), the columnar engine at JoinWorkers 1 is the reference,
// and the columnar engine at 8 workers plus the rowref engine at both
// worker counts must reproduce its Result encoding and its model bytes
// exactly. Frequencies, realization row order, join statistics (including
// the interned-probe counters rowref mirrors) — any drift fails as a byte
// mismatch.
func TestColumnarMatchesRowRefAcrossStrategies(t *testing.T) {
	for _, scale := range scales {
		w := world(t, scale)
		for _, s := range strategies {
			t.Run(fmt.Sprintf("scale%d/%s", scale, s.name), func(t *testing.T) {
				ref := mine(t, w, mineConfig(s.strat, 1, nil))
				refBytes := encodeResult(t, ref)
				refModel := modelBytes(t, w, ref)
				if len(ref.AllFrequent) == 0 {
					t.Fatalf("universe mined no patterns; the differential run is vacuous")
				}
				runs := []struct {
					name string
					impl relational.Impl
					jw   int
				}{
					{"columnar/jw8", nil, 8},
					{"rowref/jw1", rowref.New(), 1},
					{"rowref/jw8", rowref.New(), 8},
				}
				for _, r := range runs {
					got := mine(t, w, mineConfig(s.strat, r.jw, r.impl))
					if gotBytes := encodeResult(t, got); !bytes.Equal(gotBytes, refBytes) {
						t.Errorf("%s: Result encoding diverges from columnar/jw1\nref: %s\ngot: %s",
							r.name, truncate(refBytes), truncate(gotBytes))
					}
					if gotModel := modelBytes(t, w, got); !bytes.Equal(gotModel, refModel) {
						t.Errorf("%s: model bytes diverge from columnar/jw1", r.name)
					}
				}
			})
		}
	}
}

// TestPermutedIngestOrderModelBytes is the ingest-order property: two
// universes holding the same actions fed to the store in different orders
// must persist byte-identical models. Realization row order may follow
// ingest order (equal-timestamp actions keep insertion order), but the
// model's canonical forms and sorted pattern records must not.
func TestPermutedIngestOrderModelBytes(t *testing.T) {
	w := world(t, scales[0])
	forward := mine(t, w, mineConfig(relational.AutoStrategy, 1, nil))
	fwdModel := modelBytes(t, w, forward)

	// Rebuild the same universe with every entity's actions fed in reverse.
	rev := world(t, scales[0])
	shuffled := reingestReversed(t, rev)
	backward := mine(t, shuffled, mineConfig(relational.AutoStrategy, 1, nil))
	if !bytes.Equal(fwdModel, modelBytes(t, shuffled, backward)) {
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
