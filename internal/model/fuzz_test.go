package model_test

import (
	"bytes"
	"testing"

	"wiclean/internal/action"
	"wiclean/internal/mining"
	"wiclean/internal/model"
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
