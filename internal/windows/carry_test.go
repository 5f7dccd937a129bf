package windows

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"wiclean/internal/action"
	"wiclean/internal/mining"
	"wiclean/internal/obs"
	"wiclean/internal/obs/trace"
	"wiclean/internal/relational"
	"wiclean/internal/source"
	"wiclean/internal/synth"
)

// carryCase is one walk of the carried-versus-fresh differential: a
// synthetic world, the store it is mined through, and the walk's config.
type carryCase struct {
	name  string
	world *synth.World
	store mining.Store
	cfg   Config
}

// newCarryCase generates a domain's world and configures the commands'
// walk over it at one join worker, without the relative stage; factor is
// the policy's widening factor and miner the mining variant.
func newCarryCase(t *testing.T, domain string, seeds int, worldSeed uint64, abstraction int, factor float64, miner func(float64) mining.Config) carryCase {
	t.Helper()
	d, err := synth.DomainByName(domain)
	if err != nil {
		t.Fatal(err)
	}
	p := synth.DefaultParams(d, seeds)
	p.Seed = worldSeed
	w, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Defaults()
	cfg.WindowFactor = factor
	cfg.Mining = miner(cfg.InitialTau)
	cfg.Mining.MaxAbstraction = abstraction
	cfg.Mining.JoinWorkers = 1
	cfg.SkipRelative = true // the model holds no relative patterns
	return carryCase{
		name:  fmt.Sprintf("%s/%d/world%d/abs%d/%.1fx/%s", domain, seeds, worldSeed, abstraction, factor, cfg.Mining.Name()),
		world: w,
		store: w.History,
		cfg:   cfg,
	}
}

// cutSteps lists the steps up to last that are threshold cuts under cfg's
// policy: the steps whose windows the walk carries from the step before.
func cutSteps(cfg Config, span action.Window, last int) []int {
	var cuts []int
	width, tau, widenNext := cfg.MinWindow, cfg.InitialTau, true
	for step := 1; step <= last; step++ {
		nw, nt, ok := nextSetting(width, tau, &widenNext, cfg, span)
		if !ok {
			break
		}
		if nw == width {
			cuts = append(cuts, step)
		}
		width, tau = nw, nt
	}
	return cuts
}

// rowSet renders a realization table's rows, sorted, so that two tables
// with the same rows in another order compare equal.
func rowSet(tbl *relational.Table) []string {
	var rows []string
	for _, r := range tbl.Rows() {
		rows = append(rows, fmt.Sprint(r))
	}
	slices.Sort(rows)
	return rows
}

// diffScored reports the first difference between two scored pattern
// lists: the stored pattern, its frequency and source count, and its
// realization rows as a set.
func diffScored(what string, got, want []mining.ScoredPattern) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d patterns, fresh %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		switch {
		case !reflect.DeepEqual(g.Pattern, w.Pattern):
			return fmt.Errorf("%s[%d]: pattern %s, fresh %s", what, i, g.Pattern, w.Pattern)
		case g.Frequency != w.Frequency || g.SourceCount != w.SourceCount:
			return fmt.Errorf("%s[%d] %s: frequency %v (%d sources), fresh %v (%d)",
				what, i, g.Pattern, g.Frequency, g.SourceCount, w.Frequency, w.SourceCount)
		case !slices.Equal(rowSet(g.Realizations), rowSet(w.Realizations)):
			return fmt.Errorf("%s[%d] %s: %d realization rows, fresh %d, or other rows",
				what, i, g.Pattern, g.Realizations.Len(), w.Realizations.Len())
		}
	}
	return nil
}

// modelBytes encodes the outcome's model.
func modelBytes(t *testing.T, o *Outcome) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := WriteModel(&b, o.Model()); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// checkCarriedMatchesFresh is the differential oracle for carried cuts.
// The full walk's model must match the model of the same walk mining every
// step afresh. At every cut step k, the windows of the walk stopped at
// MaxSteps k, which carried their miners into step k, must hold what
// mining.Mine finds on those windows from scratch at step k's τ: the same
// stored patterns, frequencies, source counts and realization rows, both
// in the most specific list and among all frequent patterns.
func checkCarriedMatchesFresh(t *testing.T, c carryCase) {
	w := c.world
	walk := func(cfg Config, carry bool) *Outcome {
		t.Helper()
		o, err := run(context.Background(), c.store, w.Seeds, w.Domain.SeedType, w.Span, cfg, carry)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	full := walk(c.cfg, true)
	if got, want := modelBytes(t, full), modelBytes(t, walk(c.cfg, false)); !bytes.Equal(got, want) {
		t.Errorf("model of the carried walk differs from the fresh walk's (%d vs %d bytes)", len(got), len(want))
	}
	cuts := cutSteps(c.cfg, w.Span, full.RefinementSteps)
	if len(cuts) == 0 {
		t.Fatalf("walk of %d steps has no cut step", full.RefinementSteps)
	}
	for _, k := range cuts {
		carried := full
		if k < full.RefinementSteps {
			cfg := c.cfg
			cfg.MaxSteps = k
			carried = walk(cfg, true)
		}
		mcfg := c.cfg.Mining
		mcfg.Tau = carried.Tau
		for i, wr := range carried.Windows {
			fresh, err := mining.Mine(c.store, w.Seeds, w.Domain.SeedType, wr.Window, mcfg)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("step %d (τ %.3f) window %d", k, carried.Tau, i)
			if err := diffScored(label+" most specific", wr.Result.Patterns, fresh.Patterns); err != nil {
				t.Error(err)
			}
			if err := diffScored(label+" all frequent", wr.Result.AllFrequent, fresh.AllFrequent); err != nil {
				t.Error(err)
			}
		}
	}
}

// TestCarriedCutsMatchFresh runs the differential over the three synthetic
// domains at 20 and 40 seeds, world seeds 1–3 and abstraction levels 0 and
// 1, under the default policy (2.0×/20%, cuts between widenings) and Table
// 1's 1.0×/20% (five cuts in a row at two weeks), plus a world served
// through source.Store and one walk each under PM−inc and PM−join. The
// commands' default abstraction 2 runs at 20 seeds, except Soccer's walks
// under the default policy: their wide windows take a minute or more.
// mining's random-world test continues sessions at abstraction 2.
func TestCarriedCutsMatchFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("mines 90 refinement walks")
	}
	var cases []carryCase
	for _, domain := range []string{"soccer", "cinematography", "us-politicians"} {
		for _, seeds := range []int{20, 40} {
			for worldSeed := uint64(1); worldSeed <= 3; worldSeed++ {
				for abstraction := 0; abstraction <= 2; abstraction++ {
					for _, factor := range []float64{2.0, 1.0} {
						if abstraction == 2 && (seeds > 20 || domain == "soccer" && factor > 1) {
							continue
						}
						cases = append(cases, newCarryCase(t, domain, seeds, worldSeed, abstraction, factor, mining.PM))
					}
				}
			}
		}
	}
	cases = append(cases,
		newCarryCase(t, "soccer", 20, 1, 1, 2.0, mining.PMNoInc),
		newCarryCase(t, "soccer", 20, 1, 1, 2.0, mining.PMNoJoin))
	served := newCarryCase(t, "cinematography", 20, 2, 1, 2.0, mining.PM)
	src, err := source.DefaultOptions().Build(served.world.History, served.world.Reg)
	if err != nil {
		t.Fatal(err)
	}
	served.name += "/source.Store"
	served.store = source.NewStore(context.Background(), src)
	cases = append(cases, served)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			checkCarriedMatchesFresh(t, c)
		})
	}
}

// TestCarriedJobsKeepTheirInstruments checks that a (window, step) job
// whose miner was continued is observed like a fresh one: its own
// windows.window trace root over a mining.mine span, one mining run, one
// WindowsMineSeconds observation and a mining time of its own.
func TestCarriedJobsKeepTheirInstruments(t *testing.T) {
	c := newCarryCase(t, "soccer", 20, 1, 0, 2.0, mining.PM)
	reg := obs.NewRegistry()
	cfg := c.cfg
	cfg.Obs = reg
	cfg.Tracer = trace.New(trace.Config{Registry: reg, SampleRate: 1})
	w := c.world
	o, err := Run(c.store, w.Seeds, w.Domain.SeedType, w.Span, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cutSteps(cfg, w.Span, o.RefinementSteps)) == 0 {
		t.Fatal("walk has no cut to carry")
	}
	jobs := int64(len(o.WindowDurations))
	s := reg.Snapshot()
	for what, got := range map[string]int64{
		"mining runs":                  s.Counters[obs.MiningRuns],
		"WindowsMineSeconds samples":   int64(s.Histograms[obs.WindowsMineSeconds].Count),
		"windows.window trace roots":   s.Spans["trace/windows.window"].Count,
		"mining.mine spans under them": s.Spans["trace/mining.mine"].Count,
	} {
		if got != jobs {
			t.Errorf("%s: %d for %d jobs", what, got, jobs)
		}
	}
	for i, d := range o.WindowDurations {
		if d <= 0 {
			t.Errorf("job %d reports mining time %v", i, d)
		}
	}
}
