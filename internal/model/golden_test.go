package model_test

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"wiclean/internal/action"
	"wiclean/internal/mining"
	"wiclean/internal/model"
	"wiclean/internal/synth"
	"wiclean/internal/windows"
)

// goldenModelSHA256 is the sha256 of the model file mined from the world of
// TestGoldenModelBytes. Any change to what mining produces, or to how a
// model is encoded, changes it; a change that only alters how the work is
// scheduled must not.
const goldenModelSHA256 = "1172430b76df0ff16b6f8be4c7a3f22f76d0435de76a37abf88cbbca30ecc9ae"

// goldenWork is the work the same run reports, summed over the whole
// refinement walk: considered candidates (the §6.2 metric), frequent
// patterns found, and the joins and row comparisons behind them. Like the
// model bytes, these depend on what mining tests, not on how it schedules
// the tests.
var goldenWork = struct {
	candidates, frequent, joins int
	comparisons                 int64
}{candidates: 915122, frequent: 2348, joins: 316838, comparisons: 31604006}

// TestGoldenModelBytes mines a fixed Soccer world (40 seed entities, world
// seed 1, one year) with the configuration the commands use, at one join
// worker and at all cores, saves each model and compares its sha256 and
// the run's work counts with the recorded constants.
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
	for _, jw := range []int{1, 0} {
		c := cfg
		c.Mining.JoinWorkers = jw
		o, err := windows.Run(w.History, w.Seeds, w.Domain.SeedType, w.Span, c)
		if err != nil {
			t.Fatal(err)
		}
		s := o.Stats
		if s.Candidates != goldenWork.candidates || s.FrequentFound != goldenWork.frequent ||
			s.Join.Joins != goldenWork.joins || s.Join.Comparisons != goldenWork.comparisons {
			t.Errorf("JoinWorkers %d: candidates %d, frequent %d, joins %d, comparisons %d; want %d, %d, %d, %d",
				jw, s.Candidates, s.FrequentFound, s.Join.Joins, s.Join.Comparisons,
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
			t.Errorf("JoinWorkers %d: model sha256 %s, want %s", jw, got, goldenModelSHA256)
		}
	}
}
