package model_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wiclean/internal/action"
	"wiclean/internal/core"
	"wiclean/internal/mining"
	"wiclean/internal/model"
	"wiclean/internal/source"
	"wiclean/internal/synth"
	"wiclean/internal/windows"
)

// goldenModelSHA256 is the sha256 of the model file mined from the world of
// TestGoldenModelBytes. Any change to what mining produces, or to how a
// model is encoded, changes it; a change that only alters how the work is
// scheduled must not.
const goldenModelSHA256 = "c1e1ce1a633f1b0d60ef7dea80adffedc2c83d8d1a259ca54f922dfa1b3a36bc"

// goldenWork is the work the same run reports, summed over the whole
// refinement walk: considered candidates (the §6.2 metric), frequent
// patterns found, and the joins and row comparisons behind them. A
// threshold cut continues its windows' miners: it counts the candidates
// and admissions a fresh miner counts, but only the joins it could not
// take from the step before. Like the model bytes, these depend on what
// mining tests, not on how it schedules the tests. The comparisons are
// the candidate pairs the index join checks: the template's rows whose
// source matches the pattern row's glued variable, not every row of the
// template.
var goldenWork = struct {
	candidates, frequent, joins int
	comparisons                 int64
}{candidates: 915122, frequent: 2348, joins: 182932, comparisons: 455497}

// TestGoldenModelBytes mines a fixed Soccer world (40 seed entities, world
// seed 1, one year) with the configuration the commands use, at one join
// worker and at all cores, saves each model and compares its sha256 and
// the run's work counts with the recorded constants. It mines twice over:
// from the in-memory history, which the miner reads entity by entity, and
// through the source store the commands and the server read, which
// answers each type pull with one fetch of the whole type.
func TestGoldenModelBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("mines a 40-seed world twice")
	}
	p := synth.DefaultParams(synth.Soccer(), 40)
	p.Seed = 1
	p.Span = action.Window{Start: 0, End: 365 * action.Day}
	w, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := windows.Defaults()
	cfg.Mining = mining.PM(cfg.InitialTau)
	cfg.Mining.MaxAbstraction = 1
	prov, err := model.Fingerprint(w.Reg, w.Span, cfg)
	if err != nil {
		t.Fatal(err)
	}
	src, err := source.DefaultOptions().Build(w.History, w.Reg)
	if err != nil {
		t.Fatal(err)
	}
	stores := []struct {
		name  string
		store mining.Store
	}{
		{"in-memory history", w.History},
		{"source store", source.NewStore(context.Background(), src)},
	}
	for _, st := range stores {
		for _, jw := range []int{1, 0} {
			c := cfg
			c.Mining.JoinWorkers = jw
			o, err := windows.Run(st.store, w.Seeds, w.Domain.SeedType, w.Span, c)
			if err != nil {
				t.Fatal(err)
			}
			s := o.Stats
			if s.Candidates != goldenWork.candidates || s.FrequentFound != goldenWork.frequent ||
				s.Join.Joins != goldenWork.joins || s.Join.Comparisons != goldenWork.comparisons {
				t.Errorf("%s, JoinWorkers %d: candidates %d, frequent %d, joins %d, comparisons %d; want %d, %d, %d, %d",
					st.name, jw, s.Candidates, s.FrequentFound, s.Join.Joins, s.Join.Comparisons,
					goldenWork.candidates, goldenWork.frequent, goldenWork.joins, goldenWork.comparisons)
			}
			path := filepath.Join(t.TempDir(), "model.json")
			if err := model.Save(path, model.Snapshot(o, w.Reg, prov), nil); err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			if got := hex.EncodeToString(sum[:]); got != goldenModelSHA256 {
				t.Errorf("%s, JoinWorkers %d: model sha256 %s, want %s", st.name, jw, got, goldenModelSHA256)
			}
		}
	}
}

// TestGoldenModelWarmStartBoundsWidths warm-starts a system from the
// golden model, and then from the same model with its first pattern's
// width set to one second. model.Read accepts both; core.System's
// UseOutcome installs the golden model and refuses the other with an
// error naming the pattern, keeping the golden outcome. Detection splits
// the span by each pattern's width, so the one-second width would have
// made 31,536,000 detection tasks for that pattern.
func TestGoldenModelWarmStartBoundsWidths(t *testing.T) {
	p := synth.DefaultParams(synth.Soccer(), 40)
	p.Seed = 1
	p.Span = action.Window{Start: 0, End: 365 * action.Day}
	w, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := windows.Defaults()
	cfg.Mining = mining.PM(cfg.InitialTau)
	cfg.Mining.MaxAbstraction = 1
	prov, err := model.Fingerprint(w.Reg, w.Span, cfg)
	if err != nil {
		t.Fatal(err)
	}
	o, err := windows.Run(w.History, w.Seeds, w.Domain.SeedType, w.Span, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.Write(&buf, model.Snapshot(o, w.Reg, prov)); err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(buf.Bytes()); hex.EncodeToString(sum[:]) != goldenModelSHA256 {
		t.Fatal("the mined model is not the golden model")
	}
	golden, err := model.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sys := core.New(w.History, cfg)
	if err := sys.UseOutcome(golden.Outcome()); err != nil {
		t.Fatalf("the golden model: %v", err)
	}
	installed := sys.Outcome()

	golden.Patterns[0].Width = 1
	buf.Reset()
	if err := model.Write(&buf, golden); err != nil {
		t.Fatal(err)
	}
	narrow, err := model.Read(&buf)
	if err != nil {
		t.Fatalf("model.Read refused a positive width: %v", err)
	}
	err = sys.UseOutcome(narrow.Outcome())
	if err == nil {
		t.Fatal("a pattern of width 1 s was installed")
	}
	if want := narrow.Patterns[0].Pattern.String(); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name the pattern %s", err, want)
	}
	if sys.Outcome() != installed {
		t.Fatal("the refused outcome replaced the installed one")
	}
}
