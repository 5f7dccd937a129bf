package windows

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"wiclean/internal/action"
	"wiclean/internal/mining"
	"wiclean/internal/synth"
)

// memCheckpointer is an in-memory Checkpointer that deep-copies states
// through JSON (the same transport the file-backed implementation uses)
// and can trigger a callback after every save — the hook the kill/resume
// test uses to cancel the run mid-walk.
type memCheckpointer struct {
	state     []byte
	saves     int
	loads     int
	cleared   bool
	afterSave func(saves int)
}

func (m *memCheckpointer) Save(st *CheckpointState) error {
	data, err := json.Marshal(st)
	if err != nil {
		return err
	}
	m.state = data
	m.saves++
	if m.afterSave != nil {
		m.afterSave(m.saves)
	}
	return nil
}

func (m *memCheckpointer) Load() (*CheckpointState, error) {
	m.loads++
	if m.state == nil {
		return nil, nil
	}
	var st CheckpointState
	if err := json.Unmarshal(m.state, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

func (m *memCheckpointer) Clear() error {
	m.state = nil
	m.cleared = true
	return nil
}

// buildCheckpointWorld mines enough structure that the refinement walk
// takes several steps (a straddling burst forces widening).
func buildCheckpointWorld(t *testing.T) *world {
	w := newWorld(t, 10)
	for i := 0; i < 8; i++ {
		w.transferP(i, 2*action.Week-4, 2*action.Week/2+action.Time(i))
	}
	return w
}

func outcomeKey(t *testing.T, o *Outcome) string {
	t.Helper()
	type entry struct {
		Canonical string
		Frequency float64
		Width     action.Time
		Tau       float64
	}
	var summary struct {
		Width   action.Time
		Tau     float64
		Steps   int
		Entries []entry
	}
	summary.Width, summary.Tau, summary.Steps = o.Width, o.Tau, o.RefinementSteps
	for _, d := range o.Discovered {
		summary.Entries = append(summary.Entries, entry{
			Canonical: d.Pattern.Canonical(),
			Frequency: d.Frequency,
			Width:     d.Width,
			Tau:       d.Tau,
		})
	}
	data, err := json.Marshal(summary)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestRunKillAndResume interrupts a checkpointed refinement walk mid-run
// and asserts the restarted run (a) resumes past step 0 and (b) converges
// on exactly the outcome an uninterrupted run produces.
func TestRunKillAndResume(t *testing.T) {
	cfg := testConfig()
	cfg.SkipRelative = true

	// Baseline: uninterrupted run.
	base, err := Run(buildCheckpointWorld(t).store,
		buildCheckpointWorld(t).players, "FootballPlayer",
		action.Window{Start: 0, End: 8 * action.Week}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.RefinementSteps < 2 {
		t.Fatalf("fixture too shallow: %d refinement steps", base.RefinementSteps)
	}

	// Interrupted run: cancel after the second checkpoint save, so the
	// walk dies between iterations with state for step >= 1 persisted.
	mc := &memCheckpointer{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mc.afterSave = func(saves int) {
		if saves == 2 {
			cancel()
		}
	}
	w := buildCheckpointWorld(t)
	icfg := cfg
	icfg.Checkpoint = mc
	if _, err := RunContext(ctx, w.store, w.players, "FootballPlayer", w.span, icfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	if mc.state == nil {
		t.Fatal("no checkpoint persisted by the interrupted run")
	}
	if mc.cleared {
		t.Fatal("interrupted run must not clear its checkpoint")
	}

	// Resumed run over a fresh (identical) world.
	mc.afterSave = nil
	loadsBefore := mc.loads
	w2 := buildCheckpointWorld(t)
	rcfg := cfg
	rcfg.Checkpoint = mc
	resumed, err := Run(w2.store, w2.players, "FootballPlayer", w2.span, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if mc.loads != loadsBefore+1 {
		t.Fatalf("resume should load the checkpoint once, loads = %d", mc.loads-loadsBefore)
	}
	if !mc.cleared {
		t.Error("completed run should clear its checkpoint")
	}
	if got, want := outcomeKey(t, resumed), outcomeKey(t, base); got != want {
		t.Errorf("resumed outcome diverged from uninterrupted run:\n got %s\nwant %s", got, want)
	}
}

// savedBytes encodes what a finished walk persists: its model and each
// final window's relative patterns.
func savedBytes(t *testing.T, o *Outcome) []byte {
	t.Helper()
	b := bytes.NewBuffer(modelBytes(t, o))
	for _, wr := range o.Windows {
		rel, err := json.Marshal(wr.Relative)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(rel)
	}
	return b.Bytes()
}

// TestRunKillAndResumeAtEveryStep interrupts a walk whose cuts continue
// their miners after each checkpoint save in turn, resumes it, and
// compares what it saves with the uninterrupted walk's bytes, and the
// work counts that do not depend on where it resumed. A resume mines its
// first step afresh, so every run mixes fresh and carried steps
// differently; a cut resumed right after its checkpoint is mined fresh in
// place of a carried one.
func TestRunKillAndResumeAtEveryStep(t *testing.T) {
	p := synth.DefaultParams(synth.Soccer(), 20)
	p.Seed = 1
	w, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Defaults()
	cfg.Mining = mining.PM(cfg.InitialTau)
	cfg.Mining.MaxAbstraction = 0
	base, err := Run(w.History, w.Seeds, w.Domain.SeedType, w.Span, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := savedBytes(t, base)
	if len(cutSteps(cfg, w.Span, base.RefinementSteps)) == 0 {
		t.Fatalf("walk of %d steps has no cut to carry", base.RefinementSteps)
	}
	// Save n happens at the top of step n-1; the walk then mines that step
	// and stops at the top of step n, unless step n-1 was its last.
	for kill := 1; kill <= base.RefinementSteps+1; kill++ {
		mc := &memCheckpointer{}
		ctx, cancel := context.WithCancel(context.Background())
		mc.afterSave = func(saves int) {
			if saves == kill {
				cancel()
			}
		}
		icfg := cfg
		icfg.Checkpoint = mc
		o, err := RunContext(ctx, w.History, w.Seeds, w.Domain.SeedType, w.Span, icfg)
		cancel()
		if kill <= base.RefinementSteps {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("kill after save %d: err = %v, want context.Canceled", kill, err)
			}
			mc.afterSave = nil
			if o, err = Run(w.History, w.Seeds, w.Domain.SeedType, w.Span, icfg); err != nil {
				t.Fatal(err)
			}
		} else if err != nil {
			t.Fatalf("kill after the last save: %v", err)
		}
		if got := savedBytes(t, o); !bytes.Equal(got, want) {
			t.Errorf("kill after save %d: resumed walk saves %d bytes that differ from the uninterrupted walk's %d",
				kill, len(got), len(want))
		}
		// A continued miner counts the candidates, admissions and type
		// expansions a fresh one counts; the extraction, the joins and the
		// comparisons depend on where the walk resumed.
		if g, b := o.Stats, base.Stats; g.Candidates != b.Candidates || g.FrequentFound != b.FrequentFound || g.TypeExpansions != b.TypeExpansions {
			t.Errorf("kill after save %d: resumed walk counts %d candidates, %d admissions, %d expansions; uninterrupted %d, %d, %d",
				kill, g.Candidates, g.FrequentFound, g.TypeExpansions, b.Candidates, b.FrequentFound, b.TypeExpansions)
		}
	}
}

// TestRunCheckpointEvery checks the cadence knob: with CheckpointEvery=2
// only even iterations persist state.
func TestRunCheckpointEvery(t *testing.T) {
	w := buildCheckpointWorld(t)
	mc := &memCheckpointer{}
	cfg := testConfig()
	cfg.SkipRelative = true
	cfg.Checkpoint = mc
	cfg.CheckpointEvery = 2
	o, err := Run(w.store, w.players, "FootballPlayer", w.span, cfg)
	if err != nil {
		t.Fatal(err)
	}
	steps := o.RefinementSteps + 1 // loop iterations = steps 0..RefinementSteps
	want := (steps + 1) / 2        // saves at 0, 2, 4, ...
	if mc.saves != want {
		t.Errorf("saves = %d over %d iterations with CheckpointEvery=2, want %d", mc.saves, steps, want)
	}
}

// TestRunCheckpointSaveError verifies a failing checkpoint aborts the run
// instead of silently continuing without durability.
func TestRunCheckpointSaveError(t *testing.T) {
	w := buildCheckpointWorld(t)
	cfg := testConfig()
	cfg.SkipRelative = true
	cfg.Checkpoint = failingCheckpointer{}
	if _, err := Run(w.store, w.players, "FootballPlayer", w.span, cfg); err == nil {
		t.Fatal("checkpoint save failure should abort the run")
	}
}

type failingCheckpointer struct{}

func (failingCheckpointer) Save(*CheckpointState) error     { return errors.New("disk full") }
func (failingCheckpointer) Load() (*CheckpointState, error) { return nil, nil }
func (failingCheckpointer) Clear() error                    { return nil }
