package cli

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"wiclean/internal/core"
	"wiclean/internal/dump"
	"wiclean/internal/model"
	"wiclean/internal/source"
	"wiclean/internal/synth"
)

// TestLoadSameWorldFromEverySourceKind writes a data directory, appends
// to its action log a record naming an unknown entity after the last
// real action and two more such records on one line, and loads it
// through -source memory and -source dump. Both loads must read the same
// registry, seeds and span, and mine byte-identical models.
func TestLoadSameWorldFromEverySourceKind(t *testing.T) {
	p := synth.DefaultParams(synth.Soccer(), 40)
	sw, err := synth.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	dir := writeDirWithAppendix(t, sw, `{"op":"+","subject":"Nobody","relation":"current_club","object":"Nowhere","ts":40000000}`+"\n"+
		`{"op":"+","subject":"Nobody","relation":"squad","object":"Nowhere","ts":40000001}{"op":"-","subject":"Nobody","relation":"squad","object":"Nowhere","ts":40000002}`+"\n")

	load := func(kind string) (*World, []byte) {
		t.Helper()
		var fl Flags
		fl.Source = source.DefaultOptions()
		fl.Data, fl.Workers, fl.Abstraction = dir, 1, 1
		fl.Source.Kind = kind
		w, err := fl.Load(nil)
		if err != nil {
			t.Fatalf("-source %s: %v", kind, err)
		}
		sys := core.New(w.Store, fl.Config())
		o, err := sys.Mine(w.Seeds, w.SeedType, w.Span)
		if err != nil {
			t.Fatalf("-source %s: %v", kind, err)
		}
		if len(o.Discovered) == 0 {
			t.Fatalf("-source %s: mined no patterns", kind)
		}
		prov, err := model.Fingerprint(w.Reg, w.Span, sys.Config())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := model.Write(&buf, model.Snapshot(o, w.Reg, prov)); err != nil {
			t.Fatal(err)
		}
		return w, buf.Bytes()
	}
	mem, memModel := load(source.KindMemory)
	lazy, lazyModel := load(source.KindDump)

	if mem.Skipped != 3 {
		t.Errorf("memory load skipped %d records, want the 3 appended", mem.Skipped)
	}
	if want := sw.History.Span(); mem.Span != want || lazy.Span != want {
		t.Errorf("spans: memory %v, dump %v; want the generated history's %v", mem.Span, lazy.Span, want)
	}
	universe := func(w *World) []byte {
		var buf bytes.Buffer
		if err := dump.WriteUniverse(&buf, w.Reg); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(universe(mem), universe(lazy)) {
		t.Error("memory and dump loads read different registries")
	}
	if !slices.Equal(mem.Seeds, lazy.Seeds) || mem.SeedType != lazy.SeedType {
		t.Errorf("seeds: memory %d of %s, dump %d of %s", len(mem.Seeds), mem.SeedType, len(lazy.Seeds), lazy.SeedType)
	}
	if !bytes.Equal(memModel, lazyModel) {
		t.Errorf("memory and dump loads mined different models (%d and %d bytes)", len(memModel), len(lazyModel))
	}
}

// writeDirWithAppendix writes sw as a data directory and appends
// appendix to its action log.
func writeDirWithAppendix(t *testing.T, sw *synth.World, appendix string) string {
	t.Helper()
	dir := t.TempDir()
	if err := WriteDir(dir, sw, false); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, actionsFile), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.WriteString(appendix)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestLoadRejectsWrappedSpan appends a real entity's action at ts
// 9223372036854775807, the int64 limit, whose span End wraps to the int64
// minimum, and an action log with no actions: both must fail to load
// under -source memory and under -source dump instead of handing the walk
// a span it mines nothing from.
func TestLoadRejectsWrappedSpan(t *testing.T) {
	sw, err := synth.Generate(synth.DefaultParams(synth.Soccer(), 20))
	if err != nil {
		t.Fatal(err)
	}
	last := sw.History.Records()[0]
	last.T = math.MaxInt64
	var rec bytes.Buffer
	if err := dump.WriteActions(&rec, []dump.ActionRecord{last}); err != nil {
		t.Fatal(err)
	}
	wrapped := writeDirWithAppendix(t, sw, rec.String())
	empty := writeDirWithAppendix(t, sw, "")
	if err := os.WriteFile(filepath.Join(empty, actionsFile), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, dir := range map[string]string{"wrapped log": wrapped, "empty log": empty} {
		for _, kind := range []string{source.KindMemory, source.KindDump} {
			var fl Flags
			fl.Source = source.DefaultOptions()
			fl.Data = dir
			fl.Source.Kind = kind
			if w, err := fl.Load(nil); err == nil {
				t.Errorf("%s under -source %s loaded with span %v", name, kind, w.Span)
			}
		}
	}
}
