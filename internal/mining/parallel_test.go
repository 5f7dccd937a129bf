package mining

import (
	"errors"
	"reflect"
	"testing"

	"wiclean/internal/obs"
	"wiclean/internal/relational"
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
// realization tables row for row, and the same merged join statistics.
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
		if len(par.JoinJobs) != len(serial.JoinJobs) {
			t.Fatalf("job count %d parallel vs %d serial",
				len(par.JoinJobs), len(serial.JoinJobs))
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
		rels, err := MineRelative(f.store, res, cfg)
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

// TestMineJoinWorkersRecordsJobs checks the scaling experiment's input:
// every extension batch contributes its jobs in deterministic order, and
// the serial run records the same job count as the parallel one.
func TestMineJoinWorkersRecordsJobs(t *testing.T) {
	f := newFixture(t)
	res, err := Mine(f.store, f.seeds, "FootballPlayer", f.window, parallelConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.JoinJobs) == 0 {
		t.Fatal("no extension jobs recorded")
	}
	// Each job ran at least one join, so jobs cannot outnumber joins.
	if len(res.JoinJobs) > res.Stats.Join.Joins {
		t.Fatalf("%d jobs recorded but only %d joins", len(res.JoinJobs), res.Stats.Join.Joins)
	}
	// The engine default keeps AutoStrategy planning active: planner counts
	// must cover every join.
	planned := res.Stats.Join.PlannedHash + res.Stats.Join.PlannedSortMerge + res.Stats.Join.PlannedNested
	if planned != res.Stats.Join.Joins {
		t.Fatalf("planner decisions %d != joins %d", planned, res.Stats.Join.Joins)
	}
}

// TestEngineStrategyOverrideSkipsPlanner pins the forced-strategy
// semantics: an explicit Strategy bypasses the planner entirely.
func TestEngineStrategyOverrideSkipsPlanner(t *testing.T) {
	f := newFixture(t)
	cfg := parallelConfig(2)
	cfg.Strategy = relational.HashStrategy
	res, err := Mine(f.store, f.seeds, "FootballPlayer", f.window, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats.Join
	if s.PlannedHash+s.PlannedSortMerge+s.PlannedNested != 0 {
		t.Fatalf("forced strategy still consulted the planner: %+v", s)
	}
}

// TestMineRelativeArenaMetricsIndependentOfWorkers checks that the relative
// stage exports the join-output arena traffic of every engine it used, so
// the counter reads the same at any pool size.
func TestMineRelativeArenaMetricsIndependentOfWorkers(t *testing.T) {
	f := newFixture(t)
	arenaColumns := func(workers int) int64 {
		t.Helper()
		cfg := basicConfig()
		cfg.MaxActions = 6
		cfg.TauRel = 0.5
		cfg.JoinWorkers = workers
		res, err := Mine(f.store, f.seeds, "FootballPlayer", f.window, cfg)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		cfg.Obs = reg
		if _, err := MineRelative(f.store, res, cfg); err != nil {
			t.Fatal(err)
		}
		return reg.Counter(obs.RelationalArenaColumns).Value()
	}
	serial, parallel := arenaColumns(1), arenaColumns(8)
	if serial == 0 || serial != parallel {
		t.Fatalf("relative-stage arena columns: %d at 1 join worker, %d at 8; want equal and > 0", serial, parallel)
	}
}

// failingStore reports a fetch failure from its third FetchErr check on:
// the miner checks after preprocessing and after each grow round's type
// pulls, so the run fails in its second grow round, after the first
// round's extension joins.
type failingStore struct {
	Store
	checks int
}

func (s *failingStore) FetchErr() error {
	if s.checks++; s.checks >= 3 {
		return errors.New("source went away")
	}
	return nil
}

// TestMineFlushesArenaMetricsOnError checks that a run aborted by a fetch
// failure still exports its workers' arena traffic.
func TestMineFlushesArenaMetricsOnError(t *testing.T) {
	f := newFixture(t)
	reg := obs.NewRegistry()
	cfg := basicConfig()
	cfg.Obs = reg
	if _, err := Mine(&failingStore{Store: f.store}, f.seeds, "FootballPlayer", f.window, cfg); err == nil {
		t.Fatal("mined despite the fetch failure")
	}
	if n := reg.Counter(obs.RelationalArenaColumns).Value(); n == 0 {
		t.Fatal("the failed run exported no arena columns")
	}
}
