package model_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"wiclean/internal/action"
	"wiclean/internal/mining"
	"wiclean/internal/model"
	"wiclean/internal/pattern"
	"wiclean/internal/synth"
	"wiclean/internal/windows"
)

// minedModel returns the bytes of a model mined from a small Soccer world
// (20 seed entities, world seed 1, 120 days).
func minedModel(f *testing.F) []byte {
	p := synth.DefaultParams(synth.Soccer(), 20)
	p.Seed = 1
	p.Span = action.Window{Start: 0, End: 120 * action.Day}
	w, err := synth.Generate(p)
	if err != nil {
		f.Fatal(err)
	}
	cfg := windows.Defaults()
	cfg.Mining = mining.PM(cfg.InitialTau)
	o, err := windows.Run(w.History, w.Seeds, w.Domain.SeedType, w.Span, cfg)
	if err != nil {
		f.Fatal(err)
	}
	prov, err := model.Fingerprint(w.Reg, w.Span, cfg)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.Write(&buf, model.Snapshot(o, w.Reg, prov)); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzRead feeds raw bytes to the model decoder, which reads model files
// given on the command line and on every SIGHUP reload. Inputs over
// 64 KiB are skipped. For every input it checks that
//   - Read does not panic;
//   - a file Read accepts is a fixed point: Write, Read and Write again
//     give the same bytes;
//   - every pattern of the accepted file's Outcome, relative bases
//     included, formats without panicking. String is called directly,
//     because fmt would turn such a panic into text.
func FuzzRead(f *testing.F) {
	f.Add(minedModel(f))
	f.Add([]byte(`{"format": "wiclean-model", "version": 1, "span": {"Start": 0, "End": 1}}`))
	f.Add([]byte(relativeModel("+|Person:0|knows|Person:7",
		`{"Vars": ["Person"], "Actions": [{"Op": 1, "Src": 0, "Label": "knows", "Dst": 7}]}`)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64<<10 {
			return
		}
		m, err := model.Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := model.Write(&first, m); err != nil {
			t.Fatalf("writing an accepted model: %v", err)
		}
		again, err := model.Read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reading a written model: %v", err)
		}
		if err := model.Write(&second, again); err != nil {
			t.Fatalf("writing a reread model: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("write → read → write changed the bytes:\n%s\n%s", first.Bytes(), second.Bytes())
		}
		o := m.Outcome()
		for _, d := range o.Discovered {
			_ = d.Pattern.String()
		}
		for _, w := range o.Windows {
			for _, sp := range w.Result.Patterns {
				_ = sp.Pattern.String()
			}
			for _, rels := range w.Relative {
				for _, r := range rels {
					_ = r.Base.String()
					_ = r.Pattern.String()
				}
			}
		}
	})
}

// FuzzCheckpointLoad feeds raw bytes to FileCheckpointer.Load, which reads
// the checkpoint file a resumed walk continues from. Inputs over 64 KiB
// are skipped. Every input is loaded under the provenance the seed
// checkpoint was saved with, so the fuzzer reaches the state's decoding.
// For every input it checks that
//   - Load does not panic;
//   - a state Load accepts saves and loads back equal, as the file
//     encodes it: an empty list the file omits loads back as none.
//
// The seed state is built by hand, not mined: mining under the fuzzer's
// coverage instrumentation takes most of a 10-s smoke run.
func FuzzCheckpointLoad(f *testing.F) {
	prov := model.Provenance{Hash: "fuzz"}
	transfer := pattern.Singleton(action.Add, "FootballPlayer", "current_club", "FootballClub").
		Extend(pattern.Template{Op: action.Add, SrcType: "FootballClub", Label: "squad", DstType: "FootballPlayer"},
			pattern.Extension{SrcVar: 1, DstVar: 0})
	path := filepath.Join(f.TempDir(), "seed.ckpt")
	err := model.NewCheckpointer(path, prov, nil).Save(&windows.CheckpointState{
		Step:       3,
		Width:      2 * action.Week,
		Tau:        0.48,
		WidenNext:  true,
		NoProgress: 1,
		Discovered: []windows.DiscoveredPattern{{
			Pattern: transfer, Frequency: 0.6, SourceCount: 12,
			Window: action.Window{Start: 0, End: 2 * action.Week}, Width: 2 * action.Week, Tau: 0.6,
		}},
		Stats:           mining.Stats{Candidates: 40, FrequentFound: 3, Mining: 1500},
		WindowDurations: []time.Duration{1500, 2500},
	})
	if err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"format": "wiclean-checkpoint", "version": 1, "provenance": {"hash": "fuzz"}, "state": {"width": 1, "tau": 2, "step": -1}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64<<10 {
			return
		}
		dir := t.TempDir()
		in := filepath.Join(dir, "in.ckpt")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := model.NewCheckpointer(in, prov, nil).Load()
		if err != nil || st == nil {
			return
		}
		cp := model.NewCheckpointer(filepath.Join(dir, "out.ckpt"), prov, nil)
		if err := cp.Save(st); err != nil {
			t.Fatalf("saving an accepted state: %v", err)
		}
		again, err := cp.Load()
		if err != nil {
			t.Fatalf("loading a saved state: %v", err)
		}
		want, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("save → load changed the state:\n%s\n%s", want, got)
		}
	})
}
