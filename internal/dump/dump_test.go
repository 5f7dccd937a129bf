package dump

import (
	"bytes"
	"strings"
	"testing"

	"wiclean/internal/action"
	"wiclean/internal/taxonomy"
	"wiclean/internal/wikitext"
)

func soccerRegistry(t testing.TB) *taxonomy.Registry {
	t.Helper()
	x := taxonomy.New()
	x.AddChain("Person", "Athlete", "FootballPlayer")
	x.AddChain("Organisation", "FootballClub")
	x.AddChain("Organisation", "SportsLeague")
	r := taxonomy.NewRegistry(x)
	r.MustAdd("Neymar", "FootballPlayer")
	r.MustAdd("Barcelona F.C.", "FootballClub")
	r.MustAdd("PSG F.C.", "FootballClub")
	r.MustAdd("Ligue 1", "SportsLeague")
	r.MustAdd("La Liga", "SportsLeague")
	return r
}

func TestRevisionRoundTrip(t *testing.T) {
	revs := []Revision{
		{Entity: "Neymar", T: 100, Text: "{{Infobox x\n| a = [[B]]\n}}"},
		{Entity: "PSG F.C.", T: 200, Text: "body with \"quotes\" and\nnewlines"},
	}
	var buf bytes.Buffer
	if err := WriteRevisions(&buf, revs); err != nil {
		t.Fatalf("WriteRevisions: %v", err)
	}
	got, err := ReadRevisions(&buf)
	if err != nil {
		t.Fatalf("ReadRevisions: %v", err)
	}
	if len(got) != 2 || got[0] != revs[0] || got[1] != revs[1] {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestReadRevisionsBadInput(t *testing.T) {
	if _, err := ReadRevisions(strings.NewReader("{not json")); err == nil {
		t.Fatal("bad JSON should error")
	}
	got, err := ReadRevisions(strings.NewReader(""))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty input: %v, %v", got, err)
	}
}

func TestActionRecordRoundTrip(t *testing.T) {
	reg := soccerRegistry(t)
	neymar, _ := reg.Lookup("Neymar")
	psg, _ := reg.Lookup("PSG F.C.")
	a := action.Action{
		Op:   action.Add,
		Edge: action.Edge{Src: neymar, Label: "current_club", Dst: psg},
		T:    42,
	}
	rec := RecordOf(a, reg)
	if rec.Op != "+" || rec.Subject != "Neymar" || rec.Object != "PSG F.C." {
		t.Fatalf("RecordOf = %+v", rec)
	}
	back, err := ActionOf(rec, reg)
	if err != nil {
		t.Fatalf("ActionOf: %v", err)
	}
	if back != a {
		t.Fatalf("round trip: %v != %v", back, a)
	}

	var buf bytes.Buffer
	if err := WriteActions(&buf, []ActionRecord{rec}); err != nil {
		t.Fatalf("WriteActions: %v", err)
	}
	recs, err := ReadActions(&buf)
	if err != nil || len(recs) != 1 || recs[0] != rec {
		t.Fatalf("actions round trip: %v, %v", recs, err)
	}
}

func TestActionOfErrors(t *testing.T) {
	reg := soccerRegistry(t)
	cases := []ActionRecord{
		{Op: "?", Subject: "Neymar", Relation: "x", Object: "PSG F.C."},
		{Op: "+", Subject: "Nobody", Relation: "x", Object: "PSG F.C."},
		{Op: "+", Subject: "Neymar", Relation: "x", Object: "Nothing"},
	}
	for i, rec := range cases {
		if _, err := ActionOf(rec, reg); err == nil {
			t.Errorf("case %d should error", i)
		}
	}
}

func TestReadActionsBadInput(t *testing.T) {
	if _, err := ReadActions(strings.NewReader("nope")); err == nil {
		t.Fatal("bad JSON should error")
	}
}

func TestIngestRevisionsExtractsTransfer(t *testing.T) {
	reg := soccerRegistry(t)
	h := NewHistory(reg)

	rev1 := wikitext.RenderArticle("Neymar", "football biography", []wikitext.Link{
		{Relation: "current_club", Target: "Barcelona F.C."},
		{Relation: "league", Target: "La Liga"},
	})
	rev2 := wikitext.RenderArticle("Neymar", "football biography", []wikitext.Link{
		{Relation: "current_club", Target: "PSG F.C."},
		{Relation: "league", Target: "Ligue 1"},
	})
	err := h.IngestRevisions([]Revision{
		{Entity: "Neymar", T: 100, Text: rev1},
		{Entity: "Neymar", T: 200, Text: rev2},
	})
	if err != nil {
		t.Fatalf("IngestRevisions: %v", err)
	}
	neymar, _ := reg.Lookup("Neymar")
	as := h.ActionsOf([]taxonomy.EntityID{neymar}, action.Window{Start: 0, End: 1000})
	// rev1 vs empty: 2 adds; rev2 vs rev1: 2 adds + 2 removes = 6 total.
	if len(as) != 6 {
		t.Fatalf("actions = %v", as)
	}
	if h.RevisionsParsed != 2 {
		t.Errorf("RevisionsParsed = %d", h.RevisionsParsed)
	}
	// Reduced set at the transfer window: the rev2 changes only.
	red := action.Reduce(h.ActionsOf([]taxonomy.EntityID{neymar}, action.Window{Start: 150, End: 1000}))
	if len(red) != 4 {
		t.Fatalf("reduced transfer actions = %v", red)
	}
}

func TestIngestRevisionsUnknownEntity(t *testing.T) {
	h := NewHistory(soccerRegistry(t))
	err := h.IngestRevisions([]Revision{{Entity: "Martian", T: 1, Text: "x"}})
	if err == nil {
		t.Fatal("unknown entity should error")
	}
}

func TestIngestRevisionsSkipsUnknownTargets(t *testing.T) {
	reg := soccerRegistry(t)
	h := NewHistory(reg)
	rev := wikitext.RenderArticle("Neymar", "football biography", []wikitext.Link{
		{Relation: "current_club", Target: "PSG F.C."},
		{Relation: "birth_place", Target: "Mogi das Cruzes"}, // not registered
	})
	if err := h.IngestRevisions([]Revision{{Entity: "Neymar", T: 1, Text: rev}}); err != nil {
		t.Fatal(err)
	}
	if h.LinksSkipped != 1 {
		t.Errorf("LinksSkipped = %d, want 1", h.LinksSkipped)
	}
	if h.ActionCount() != 1 {
		t.Errorf("ActionCount = %d, want 1", h.ActionCount())
	}
}

func TestIngestRevisionsUnsortedTimestamps(t *testing.T) {
	reg := soccerRegistry(t)
	h := NewHistory(reg)
	old := wikitext.RenderArticle("Neymar", "bio", []wikitext.Link{{Relation: "current_club", Target: "Barcelona F.C."}})
	cur := wikitext.RenderArticle("Neymar", "bio", []wikitext.Link{{Relation: "current_club", Target: "PSG F.C."}})
	// Deliver revisions out of order; ingestion must sort by time first.
	if err := h.IngestRevisions([]Revision{
		{Entity: "Neymar", T: 200, Text: cur},
		{Entity: "Neymar", T: 100, Text: old},
	}); err != nil {
		t.Fatal(err)
	}
	neymar, _ := reg.Lookup("Neymar")
	as := h.ActionsOf([]taxonomy.EntityID{neymar}, action.Window{Start: 0, End: 1000})
	if len(as) != 3 { // add barca; add psg, remove barca
		t.Fatalf("actions = %v", as)
	}
	if as[0].T != 100 || as[0].Op != action.Add {
		t.Fatalf("first action = %v", as[0])
	}
}

func TestAddActionsAndWindows(t *testing.T) {
	reg := soccerRegistry(t)
	h := NewHistory(reg)
	neymar, _ := reg.Lookup("Neymar")
	psg, _ := reg.Lookup("PSG F.C.")
	h.AddActions(
		action.Action{Op: action.Add, Edge: action.Edge{Src: neymar, Label: "current_club", Dst: psg}, T: 50},
		action.Action{Op: action.Add, Edge: action.Edge{Src: psg, Label: "squad", Dst: neymar}, T: 150},
	)
	if got := h.ActionsOf([]taxonomy.EntityID{neymar, psg}, action.Window{Start: 0, End: 100}); len(got) != 1 {
		t.Fatalf("windowed = %v", got)
	}
	if got := h.AllActions(action.Window{Start: 0, End: 1000}); len(got) != 2 {
		t.Fatalf("AllActions = %v", got)
	}
	if got := h.EntitiesWithActions(); len(got) != 2 {
		t.Fatalf("EntitiesWithActions = %v", got)
	}
	span := h.Span()
	if span.Start != 50 || span.End != 151 {
		t.Fatalf("Span = %v", span)
	}
}

func TestSpanEmpty(t *testing.T) {
	h := NewHistory(soccerRegistry(t))
	if w := h.Span(); w != (action.Window{}) {
		t.Fatalf("empty Span = %v", w)
	}
}

func TestRecordsAndIngestRecordsRoundTrip(t *testing.T) {
	reg := soccerRegistry(t)
	h := NewHistory(reg)
	neymar, _ := reg.Lookup("Neymar")
	psg, _ := reg.Lookup("PSG F.C.")
	barca, _ := reg.Lookup("Barcelona F.C.")
	h.AddActions(
		action.Action{Op: action.Remove, Edge: action.Edge{Src: neymar, Label: "current_club", Dst: barca}, T: 10},
		action.Action{Op: action.Add, Edge: action.Edge{Src: neymar, Label: "current_club", Dst: psg}, T: 20},
	)
	recs := h.Records()
	if len(recs) != 2 {
		t.Fatalf("Records = %v", recs)
	}
	h2 := NewHistory(reg)
	if skipped := h2.IngestRecords(recs); skipped != 0 {
		t.Fatalf("skipped = %d", skipped)
	}
	if h2.ActionCount() != 2 {
		t.Fatalf("ActionCount = %d", h2.ActionCount())
	}
	// Skipping unknown records.
	h3 := NewHistory(reg)
	bad := append(recs, ActionRecord{Op: "+", Subject: "Nobody", Relation: "x", Object: "PSG F.C.", T: 1})
	if skipped := h3.IngestRecords(bad); skipped != 1 {
		t.Fatalf("skipped = %d, want 1", skipped)
	}
}
