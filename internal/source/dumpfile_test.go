package source

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"wiclean/internal/dump"
	"wiclean/internal/taxonomy"
)

// testLog is the test world's history written as an action log.
func testLog(t testing.TB, w *testWorld) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := dump.WriteActions(&buf, w.hist.Records()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// dumpVsMemory reads log as the action log of reg two ways: lazily,
// through dump.ScanSpan and a DumpFile over a file in dir, and whole,
// through dump.ReadActions and History.IngestRecords behind Memory. Either
// both reject the log, or both report the same span and record count and
// serve the same actions for every populated type at AllTime.
func dumpVsMemory(reg *taxonomy.Registry, dir string, log []byte) error {
	path := filepath.Join(dir, "actions.jsonl")
	if err := os.WriteFile(path, log, 0o644); err != nil {
		return err
	}
	recs, memErr := dump.ReadActions(bytes.NewReader(log))
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	span, n, scanErr := dump.ScanSpan(f, reg)
	f.Close()
	if (memErr == nil) != (scanErr == nil) {
		return fmt.Errorf("memory load error %v, span scan error %v", memErr, scanErr)
	}
	ctx := context.Background()
	lazy := NewDumpFile(path, reg)
	if memErr != nil {
		for _, t := range reg.PopulatedTypes() {
			if _, err := lazy.FetchType(ctx, t, AllTime); err == nil || !IsPermanent(err) {
				return fmt.Errorf("type %s: memory rejects the log (%v), dump fetch returns error %v", t, memErr, err)
			}
		}
		return nil
	}
	h := dump.NewHistory(reg)
	h.IngestRecords(recs)
	if got, want := span, h.Span(); got != want {
		return fmt.Errorf("span scan reads %v, memory %v", got, want)
	}
	if n != h.ActionCount() {
		return fmt.Errorf("span scan counts %d records, memory ingests %d", n, h.ActionCount())
	}
	whole := NewMemory(h)
	for _, t := range reg.PopulatedTypes() {
		got, err := lazy.FetchType(ctx, t, AllTime)
		if err != nil {
			return fmt.Errorf("type %s: dump fetch: %w", t, err)
		}
		want, err := whole.FetchType(ctx, t, AllTime)
		if err != nil {
			return fmt.Errorf("type %s: memory fetch: %w", t, err)
		}
		if !slices.Equal(got, want) {
			return fmt.Errorf("type %s: dump serves %v, memory %v", t, got, want)
		}
	}
	return nil
}

// Two action logs that a lazy reader gets wrong unless it reads the log as
// the memory load does: a record naming an entity outside the universe
// after the last real one, which must not stretch the span, and two
// records on one line, which a line-by-line decoder rejects.
const (
	unknownPastEnd = `{"op":"+","subject":"Nobody","relation":"current_club","object":"C1","ts":40000000}` + "\n"
	twoOnOneLine   = `{"op":"+","subject":"P1","relation":"current_club","object":"C2","ts":5}{"op":"-","subject":"C1","relation":"squad","object":"P1","ts":6}` + "\n"
)

// TestDumpFileMatchesMemory checks the span scan and DumpFile.FetchType
// against ReadActions, IngestRecords and History.Span on a generated log
// and on the two logs above.
func TestDumpFileMatchesMemory(t *testing.T) {
	w := newTestWorld(t)
	clean := testLog(t, w)
	for name, log := range map[string][]byte{
		"clean":            clean,
		"unknown-past-end": append(slices.Clone(clean), unknownPastEnd...),
		"two-on-one-line":  append(slices.Clone(clean), twoOnOneLine...),
	} {
		t.Run(name, func(t *testing.T) {
			if err := dumpVsMemory(w.reg, t.TempDir(), log); err != nil {
				t.Fatal(err)
			}
		})
	}
	// The unknown record must not stretch the span past the last real
	// action.
	span, _, err := dump.ScanSpan(bytes.NewReader(append(slices.Clone(clean), unknownPastEnd...)), w.reg)
	if err != nil {
		t.Fatal(err)
	}
	if want := w.hist.Span(); span != want {
		t.Fatalf("span %v, want the history's %v", span, want)
	}
}

// FuzzDumpMatchesMemory feeds raw bytes as the action log of the test
// world's universe to both readers of dumpVsMemory: no panic, and the lazy
// and memory reads agree on rejection, span and served actions.
func FuzzDumpMatchesMemory(f *testing.F) {
	w := newTestWorld(f)
	clean := testLog(f, w)
	f.Add(clean)
	f.Add(append(slices.Clone(clean), unknownPastEnd...))
	f.Add(append(slices.Clone(clean), twoOnOneLine...))
	f.Fuzz(func(t *testing.T, log []byte) {
		if len(log) > 64<<10 {
			t.Skip("inputs over 64 KiB")
		}
		if err := dumpVsMemory(w.reg, t.TempDir(), log); err != nil {
			t.Fatal(err)
		}
	})
}
