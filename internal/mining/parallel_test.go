package mining

import (
	"context"
	"reflect"
	"strconv"
	"testing"

	"wiclean/internal/action"
	"wiclean/internal/obs/trace"
	"wiclean/internal/relational"
	"wiclean/internal/synth"
)

// parallelConfig mines deep: a low threshold and long patterns admit a few
// hundred patterns and schedule ~1000 extension jobs across the pool —
// enough scheduling surface to shake out ordering bugs while staying fast.
// Base types only: one abstraction level multiplies the pattern set ~40×
// and turns the most-specific selection quadratic in it.
func parallelConfig(workers int) Config {
	c := PM(0.3)
	c.MaxActions = 6
	c.MaxAbstraction = 0
	c.JoinWorkers = workers
	return c
}

// stripDurations zeroes the wall-clock fields so Stats compare by work
// counts only — durations legitimately differ between runs.
func stripDurations(s Stats) Stats {
	s.Preprocessing = 0
	s.Mining = 0
	return s
}

func requireSameScored(t *testing.T, label string, serial, parallel []ScoredPattern) {
	t.Helper()
	if len(serial) != len(parallel) {
		t.Fatalf("%s: %d patterns serial vs %d parallel", label, len(serial), len(parallel))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.Pattern.Canonical() != p.Pattern.Canonical() {
			t.Fatalf("%s[%d]: pattern %s serial vs %s parallel",
				label, i, s.Pattern.Canonical(), p.Pattern.Canonical())
		}
		if s.Frequency != p.Frequency || s.SourceCount != p.SourceCount {
			t.Fatalf("%s[%d] %s: score %.4f/%d serial vs %.4f/%d parallel",
				label, i, s.Pattern.Canonical(),
				s.Frequency, s.SourceCount, p.Frequency, p.SourceCount)
		}
		if !reflect.DeepEqual(s.Realizations.Columns(), p.Realizations.Columns()) {
			t.Fatalf("%s[%d] %s: realization columns differ: %v vs %v",
				label, i, s.Pattern.Canonical(),
				s.Realizations.Columns(), p.Realizations.Columns())
		}
		if !reflect.DeepEqual(s.Realizations.Rows(), p.Realizations.Rows()) {
			t.Fatalf("%s[%d] %s: realization rows differ (order included):\n%v\nvs\n%v",
				label, i, s.Pattern.Canonical(),
				s.Realizations.Rows(), p.Realizations.Rows())
		}
	}
}

// TestMineJoinWorkerDeterminism is the tentpole contract: a pool of N
// workers must produce a Result byte-identical to the serial miner —
// same patterns in the same canonical order, same scores, same
// realization tables row for row, and the same join statistics summed
// over the workers' engines.
// Several parallel runs guard against scheduling luck; the CI race job
// exercises this same path under -race.
func TestMineJoinWorkerDeterminism(t *testing.T) {
	f := newFixture(t)
	serial, err := Mine(f.store, f.seeds, "FootballPlayer", f.window, parallelConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.AllFrequent) < 10 {
		t.Fatalf("fixture too shallow for a determinism test: %d frequent patterns",
			len(serial.AllFrequent))
	}
	for run := 0; run < 5; run++ {
		par, err := Mine(f.store, f.seeds, "FootballPlayer", f.window, parallelConfig(8))
		if err != nil {
			t.Fatal(err)
		}
		requireSameScored(t, "Patterns", serial.Patterns, par.Patterns)
		requireSameScored(t, "AllFrequent", serial.AllFrequent, par.AllFrequent)
		if got, want := stripDurations(par.Stats), stripDurations(serial.Stats); got != want {
			t.Fatalf("stats diverge:\nserial   %+v\nparallel %+v", want, got)
		}
	}
}

// TestMineRelativeDeterminismAcrossWorkers extends the contract to
// Algorithm 1's relative stage, which reuses the same miner internals.
func TestMineRelativeDeterminismAcrossWorkers(t *testing.T) {
	f := newFixture(t)
	mineRel := func(workers int) map[string][]RelativePattern {
		t.Helper()
		// basicConfig keeps the base-pattern set small (tau 0.7); the
		// relative stage reruns the miner once per base, so the deep
		// parallelConfig would multiply into minutes here.
		cfg := basicConfig()
		cfg.MaxActions = 6
		cfg.TauRel = 0.5
		cfg.JoinWorkers = workers
		res, err := Mine(f.store, f.seeds, "FootballPlayer", f.window, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rels, err := MineRelativeContext(context.Background(), f.store, res, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rels
	}
	serial := mineRel(1)
	parallel := mineRel(8)
	if len(serial) != len(parallel) {
		t.Fatalf("%d relative bases serial vs %d parallel", len(serial), len(parallel))
	}
	for base, sps := range serial {
		pps, ok := parallel[base]
		if !ok {
			t.Fatalf("base %s missing from parallel run", base)
		}
		if len(sps) != len(pps) {
			t.Fatalf("base %s: %d relatives serial vs %d parallel", base, len(sps), len(pps))
		}
		for i := range sps {
			if sps[i].Pattern.Canonical() != pps[i].Pattern.Canonical() ||
				sps[i].RelFreq != pps[i].RelFreq ||
				sps[i].SourceCount != pps[i].SourceCount {
				t.Fatalf("base %s relative[%d]: %v serial vs %v parallel",
					base, i, sps[i], pps[i])
			}
		}
	}
}

// TestResolveJoinWorkers pins the pool-size defaulting rule.
func TestResolveJoinWorkers(t *testing.T) {
	if got := resolveJoinWorkers(4); got != 4 {
		t.Fatalf("resolveJoinWorkers(4) = %d", got)
	}
	if got := resolveJoinWorkers(0); got < 1 {
		t.Fatalf("resolveJoinWorkers(0) = %d, want >= 1", got)
	}
	if got := resolveJoinWorkers(-3); got < 1 {
		t.Fatalf("resolveJoinWorkers(-3) = %d, want >= 1", got)
	}
}

// tracedJobs mines one window under a tracer that keeps every trace and
// returns the result with the number of extension jobs the run scheduled:
// the sum of the jobs attributes of its mining.extend_batch spans.
func tracedJobs(t *testing.T, w *synth.World, win action.Window, cfg Config) (*Result, int64) {
	t.Helper()
	tr := trace.New(trace.Config{})
	ctx, root := tr.StartRoot(context.Background(), "test")
	res, err := MineContext(ctx, w.History, w.Seeds, w.Domain.SeedType, win, cfg)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	var jobs int64
	for _, exp := range tr.Recent() {
		for _, sp := range exp.Spans {
			if sp.Name != "mining.extend_batch" {
				continue
			}
			n, err := strconv.ParseInt(sp.Attrs["jobs"], 10, 64)
			if err != nil {
				t.Fatalf("extend_batch span without a jobs count: %v", sp.Attrs)
			}
			jobs += n
		}
	}
	return res, jobs
}

// TestMineJoinWorkersRecordsJobs checks that only gluable (pattern,
// template) pairs become extension jobs, reading the job count from the
// extend_batch spans. Every job runs at least one join, so jobs cannot
// outnumber joins; on this world most tested pairs do not glue, and
// turning each of them into a job would break that bound. The count is
// the same at 1 and 8 join workers and under PM−join. PM and PM−join run
// the same joins; PM's index makes no more comparisons than PM−join's
// nested loop.
func TestMineJoinWorkersRecordsJobs(t *testing.T) {
	p := synth.DefaultParams(synth.Soccer(), 40)
	w, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	win := action.Window{Start: 4 * action.Week, End: 12 * action.Week}
	cfg := PM(0.5)
	cfg.MaxAbstraction = 1
	cfg.JoinWorkers = 1
	res, jobs := tracedJobs(t, w, win, cfg)
	if jobs == 0 || jobs > int64(res.Stats.Join.Joins) {
		t.Fatalf("%d extension jobs for %d joins; want 0 < jobs <= joins", jobs, res.Stats.Join.Joins)
	}
	cfg.JoinWorkers = 8
	if _, par := tracedJobs(t, w, win, cfg); par != jobs {
		t.Fatalf("%d jobs at 8 join workers, %d at 1", par, jobs)
	}
	cfg.Strategy = relational.NestedLoop
	nl, nlJobs := tracedJobs(t, w, win, cfg)
	pm, pmj := res.Stats.Join, nl.Stats.Join
	if pm.Joins != pmj.Joins || jobs != nlJobs {
		t.Fatalf("PM ran %d joins in %d jobs, PM-join %d in %d", pm.Joins, jobs, pmj.Joins, nlJobs)
	}
	if pm.Comparisons > pmj.Comparisons {
		t.Fatalf("PM made %d comparisons, more than PM-join's %d", pm.Comparisons, pmj.Comparisons)
	}
}
