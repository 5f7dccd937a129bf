package model_test

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"wiclean/internal/action"
	"wiclean/internal/dump"
	"wiclean/internal/mining"
	"wiclean/internal/model"
	"wiclean/internal/pattern"
	"wiclean/internal/taxonomy"
	"wiclean/internal/windows"
)

// fixture builds a small soccer-style world, mines it, and returns the
// pieces a model needs.
type fixture struct {
	reg  *taxonomy.Registry
	span action.Window
	cfg  windows.Config
	out  *windows.Outcome
	prov model.Provenance
}

func mineFixture(t *testing.T) *fixture {
	t.Helper()
	x := taxonomy.New()
	x.AddChain("Person", "Athlete", "FootballPlayer")
	x.AddChain("Organisation", "FootballClub")
	reg := taxonomy.NewRegistry(x)
	store := dump.NewHistory(reg)
	var players, clubs []taxonomy.EntityID
	for i := 0; i < 6; i++ {
		players = append(players, reg.MustAdd(fmt.Sprintf("P%02d", i), "FootballPlayer"))
	}
	for i := 0; i < 12; i++ {
		clubs = append(clubs, reg.MustAdd(fmt.Sprintf("C%02d", i), "FootballClub"))
	}
	span := action.Window{Start: 0, End: 8 * action.Week}
	for i := 0; i < 5; i++ {
		ts := action.Week + action.Time(i)*action.Hour
		store.AddActions(
			action.Action{Op: action.Add, Edge: action.Edge{Src: players[i], Label: "current_club", Dst: clubs[2*i+1]}, T: ts},
			action.Action{Op: action.Remove, Edge: action.Edge{Src: players[i], Label: "current_club", Dst: clubs[2*i]}, T: ts + 1},
			action.Action{Op: action.Add, Edge: action.Edge{Src: clubs[2*i+1], Label: "squad", Dst: players[i]}, T: ts + 2},
			action.Action{Op: action.Remove, Edge: action.Edge{Src: clubs[2*i], Label: "squad", Dst: players[i]}, T: ts + 3},
		)
	}
	cfg := windows.Defaults()
	cfg.MinWindow = 2 * action.Week
	cfg.MaxWindow = 8 * action.Week
	cfg.Mining = mining.PM(0.7)
	cfg.Mining.MaxAbstraction = 0
	out, err := windows.Run(store, players, "FootballPlayer", span, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Discovered) == 0 {
		t.Fatal("fixture mined no patterns")
	}
	prov, err := model.Fingerprint(reg, span, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{reg: reg, span: span, cfg: cfg, out: out, prov: prov}
}

func TestRoundTripByteIdentical(t *testing.T) {
	fx := mineFixture(t)
	f := model.Snapshot(fx.out, fx.reg, fx.prov)

	var first bytes.Buffer
	if err := model.Write(&first, f); err != nil {
		t.Fatal(err)
	}
	loaded, err := model.Read(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := model.Write(&second, loaded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("save → load → save is not byte-identical")
	}
}

func TestRoundTripOutcome(t *testing.T) {
	fx := mineFixture(t)
	f := model.Snapshot(fx.out, fx.reg, fx.prov)
	var buf bytes.Buffer
	if err := model.Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	loaded, err := model.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	back := loaded.Outcome()
	if back.SeedType != fx.out.SeedType || back.Span != fx.out.Span {
		t.Error("outcome metadata lost")
	}
	if back.Width != fx.out.Width || back.Tau != fx.out.Tau {
		t.Error("converged setting lost")
	}
	if len(back.Discovered) != len(fx.out.Discovered) {
		t.Fatalf("discovered = %d, want %d", len(back.Discovered), len(fx.out.Discovered))
	}
	for i := range back.Discovered {
		g, w := back.Discovered[i], fx.out.Discovered[i]
		if !g.Pattern.Equal(w.Pattern) || g.Frequency != w.Frequency || g.Width != w.Width {
			t.Fatalf("discovered pattern %d lost in round trip", i)
		}
	}
	if len(back.Windows) != len(fx.out.Windows) {
		t.Fatalf("windows = %d, want %d", len(back.Windows), len(fx.out.Windows))
	}
	for i := range back.Windows {
		if got, want := len(back.Windows[i].Relative), len(fx.out.Windows[i].Relative); got != want {
			t.Fatalf("window %d relative groups = %d, want %d", i, got, want)
		}
	}
	tax, err := loaded.Taxonomy()
	if err != nil {
		t.Fatal(err)
	}
	if !tax.IsA("FootballPlayer", "Person") {
		t.Error("taxonomy snapshot lost the Person chain")
	}
}

func TestVerifyDetectsStaleness(t *testing.T) {
	fx := mineFixture(t)
	f := model.Snapshot(fx.out, fx.reg, fx.prov)
	if err := f.Verify(fx.prov); err != nil {
		t.Fatalf("fresh model rejected: %v", err)
	}

	// Different span → different fingerprint.
	other, err := model.Fingerprint(fx.reg, action.Window{Start: 0, End: 9 * action.Week}, fx.cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = f.Verify(other)
	var stale *model.StaleError
	if !errors.As(err, &stale) {
		t.Fatalf("span drift: err = %v, want *StaleError", err)
	}
	if !strings.Contains(stale.Error(), "stale model") {
		t.Errorf("StaleError message uninformative: %v", stale)
	}

	// A semantic config change also invalidates; a perf-only change must not.
	semantic := fx.cfg
	semantic.InitialTau = 0.5
	semProv, err := model.Fingerprint(fx.reg, fx.span, semantic)
	if err != nil {
		t.Fatal(err)
	}
	if f.Verify(semProv) == nil {
		t.Error("semantic config drift should be stale")
	}
	perf := fx.cfg
	perf.Mining.JoinWorkers = 3
	perfProv, err := model.Fingerprint(fx.reg, fx.span, perf)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Verify(perfProv); err != nil {
		t.Errorf("perf-only config change should not be stale: %v", err)
	}

	// A changed universe invalidates.
	fx.reg.MustAdd("NewPlayer", "FootballPlayer")
	grown, err := model.Fingerprint(fx.reg, fx.span, fx.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f.Verify(grown) == nil {
		t.Error("universe drift should be stale")
	}
}

func TestReadRejections(t *testing.T) {
	fx := mineFixture(t)
	good := model.Snapshot(fx.out, fx.reg, fx.prov)

	encode := func(mutate func(*model.File)) string {
		f := *good
		mutate(&f)
		var buf bytes.Buffer
		if err := model.Write(&buf, &f); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	t.Run("not-a-model", func(t *testing.T) {
		_, err := model.Read(strings.NewReader(encode(func(f *model.File) { f.Format = "something-else" })))
		if !errors.Is(err, model.ErrNotModel) {
			t.Fatalf("err = %v, want ErrNotModel", err)
		}
	})
	t.Run("future-version", func(t *testing.T) {
		_, err := model.Read(strings.NewReader(encode(func(f *model.File) { f.Version = model.Version + 1 })))
		if err == nil || errors.Is(err, model.ErrNotModel) {
			t.Fatalf("err = %v, want a version error", err)
		}
	})
	t.Run("bad-json", func(t *testing.T) {
		if _, err := model.Read(strings.NewReader("{nope")); err == nil {
			t.Fatal("malformed JSON should error")
		}
	})
	t.Run("canonical-drift", func(t *testing.T) {
		_, err := model.Read(strings.NewReader(encode(func(f *model.File) {
			f.Patterns = append([]model.PatternRecord(nil), f.Patterns...)
			f.Patterns[0].Canonical = "corrupted"
		})))
		if err == nil || !strings.Contains(err.Error(), "canonical") {
			t.Fatalf("err = %v, want canonical mismatch", err)
		}
	})
	t.Run("empty-span", func(t *testing.T) {
		_, err := model.Read(strings.NewReader(encode(func(f *model.File) { f.Span = action.Window{} })))
		if err == nil {
			t.Fatal("empty span should error")
		}
	})
	// A pattern whose action references a variable it lacks: Read must
	// reject it before it tries to format it.
	t.Run("invalid-pattern", func(t *testing.T) {
		bad := pattern.Pattern{
			Vars:    []taxonomy.Type{"FootballPlayer"},
			Actions: []pattern.AbstractAction{{Op: action.Add, Src: 0, Label: "l", Dst: 9}},
		}
		_, err := model.Read(strings.NewReader(encode(func(f *model.File) {
			f.Patterns = append([]model.PatternRecord(nil), f.Patterns...)
			f.Patterns[0].Pattern = bad
		})))
		if err == nil || strings.Contains(err.Error(), "stored canonical form") {
			t.Fatalf("err = %v, want a pattern validation error", err)
		}
	})
	t.Run("zero-width", func(t *testing.T) {
		_, err := model.Read(strings.NewReader(encode(func(f *model.File) {
			f.Patterns = append([]model.PatternRecord(nil), f.Patterns...)
			f.Patterns[0].Width = 0
		})))
		if err == nil || !strings.Contains(err.Error(), "width") {
			t.Fatalf("err = %v, want a width error", err)
		}
	})
}

// relativeModel is a hand-written model with one relative record: a
// base pattern, given as JSON, under the key key.
func relativeModel(key, base string) string {
	return fmt.Sprintf(`{
  "format": "wiclean-model",
  "version": 1,
  "span": {"Start": 0, "End": 100},
  "taxonomy": [{"name": "Person", "parent": ""}],
  "patterns": [],
  "windows": [{
    "window": {"Start": 0, "End": 100},
    "relative": {
      %q: [{
        "base": %s,
        "pattern": {"Vars": ["Person", "Person"], "Actions": [{"Op": 1, "Src": 0, "Label": "knows", "Dst": 1}]},
        "rel_freq": 1, "frequency": 0.5, "source_count": 1
      }]
    }
  }]
}`, key, base)
}

// TestReadChecksRelativeBases checks that a relative record's base is
// validated like any stored pattern, with its window's key as its
// canonical form. A base that references variable 7 of a one-variable
// pattern would panic when formatted.
func TestReadChecksRelativeBases(t *testing.T) {
	const (
		good = `{"Vars": ["Person", "Person"], "Actions": [{"Op": 1, "Src": 0, "Label": "knows", "Dst": 1}]}`
		bad  = `{"Vars": ["Person"], "Actions": [{"Op": 1, "Src": 0, "Label": "knows", "Dst": 7}]}`
	)
	for _, c := range []struct {
		name, key, base string
		ok              bool
	}{
		{"out-of-range", "+|Person:0|knows|Person:7", bad, false},
		{"key-drift", "+|Person:0|knows|Person:7", good, false},
		{"canonical", "+|Person:0|knows|Person:1", good, true},
	} {
		_, err := model.Read(strings.NewReader(relativeModel(c.key, c.base)))
		if (err == nil) != c.ok {
			t.Fatalf("%s: err = %v, want ok %v", c.name, err, c.ok)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	fx := mineFixture(t)
	f := model.Snapshot(fx.out, fx.reg, fx.prov)
	path := filepath.Join(t.TempDir(), "model.json")
	if err := model.Save(path, f, nil); err != nil {
		t.Fatal(err)
	}
	loaded, err := model.Load(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Verify(fx.prov); err != nil {
		t.Fatal(err)
	}
	if _, err := model.Load(filepath.Join(t.TempDir(), "missing.json"), nil); err == nil {
		t.Error("missing file should error")
	}
}

func TestFileCheckpointer(t *testing.T) {
	fx := mineFixture(t)
	path := filepath.Join(t.TempDir(), "mine.ckpt")
	cp := model.NewCheckpointer(path, fx.prov, nil)

	// No checkpoint yet: (nil, nil).
	st, err := cp.Load()
	if err != nil || st != nil {
		t.Fatalf("empty load = %v, %v; want nil, nil", st, err)
	}

	want := &windows.CheckpointState{
		Step:       3,
		Width:      4 * action.Week,
		Tau:        0.56,
		WidenNext:  true,
		NoProgress: 1,
		Discovered: fx.out.Discovered,
	}
	if err := cp.Save(want); err != nil {
		t.Fatal(err)
	}
	got, err := cp.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != want.Step || got.Width != want.Width || got.Tau != want.Tau ||
		got.WidenNext != want.WidenNext || got.NoProgress != want.NoProgress {
		t.Fatalf("state lost in round trip: %+v", got)
	}
	if len(got.Discovered) != len(want.Discovered) {
		t.Fatalf("discovered = %d, want %d", len(got.Discovered), len(want.Discovered))
	}

	// A checkpointer with drifted provenance refuses the resume.
	other, err := model.Fingerprint(fx.reg, action.Window{Start: 0, End: 9 * action.Week}, fx.cfg)
	if err != nil {
		t.Fatal(err)
	}
	var stale *model.StaleError
	if _, err := model.NewCheckpointer(path, other, nil).Load(); !errors.As(err, &stale) {
		t.Fatalf("stale resume: err = %v, want *StaleError", err)
	}

	// Clear removes the file; clearing again is fine.
	if err := cp.Clear(); err != nil {
		t.Fatal(err)
	}
	if st, err := cp.Load(); err != nil || st != nil {
		t.Fatalf("load after clear = %v, %v; want nil, nil", st, err)
	}
	if err := cp.Clear(); err != nil {
		t.Fatal(err)
	}
}
