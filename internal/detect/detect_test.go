package detect

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"wiclean/internal/action"
	"wiclean/internal/dump"
	"wiclean/internal/pattern"
	"wiclean/internal/taxonomy"
)

type world struct {
	reg     *taxonomy.Registry
	store   *dump.History
	players []taxonomy.EntityID
	clubs   []taxonomy.EntityID
	window  action.Window
}

func newWorld(t *testing.T) *world {
	t.Helper()
	x := taxonomy.New()
	x.AddChain("Person", "Athlete", "FootballPlayer")
	x.AddChain("Organisation", "FootballClub")
	x.AddChain("Organisation", "SportsLeague")
	reg := taxonomy.NewRegistry(x)
	w := &world{reg: reg, store: dump.NewHistory(reg), window: action.Window{Start: 0, End: 100}}
	for _, n := range []string{"P1", "P2", "P3"} {
		w.players = append(w.players, reg.MustAdd(n, "FootballPlayer"))
	}
	for _, n := range []string{"C1", "C2"} {
		w.clubs = append(w.clubs, reg.MustAdd(n, "FootballClub"))
	}
	return w
}

// reciprocalPattern: player joins club, club adds player.
func reciprocalPattern() pattern.Pattern {
	return pattern.Pattern{
		Vars: []taxonomy.Type{"FootballPlayer", "FootballClub"},
		Actions: []pattern.AbstractAction{
			{Op: action.Add, Src: 0, Label: "current_club", Dst: 1},
			{Op: action.Add, Src: 1, Label: "squad", Dst: 0},
		},
	}
}

func (w *world) join(p, c int, ts action.Time, reciprocate bool) {
	w.store.AddActions(action.Action{
		Op: action.Add, Edge: action.Edge{Src: w.players[p], Label: "current_club", Dst: w.clubs[c]}, T: ts,
	})
	if reciprocate {
		w.store.AddActions(action.Action{
			Op: action.Add, Edge: action.Edge{Src: w.clubs[c], Label: "squad", Dst: w.players[p]}, T: ts + 1,
		})
	}
}

func TestFindPartialsSignalsIncompleteEdit(t *testing.T) {
	w := newWorld(t)
	w.join(0, 0, 10, true)  // complete
	w.join(1, 1, 20, false) // partial: club never added P2

	d := New(w.store)
	rep, err := d.FindPartials(reciprocalPattern(), w.window)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FullCount != 1 {
		t.Fatalf("FullCount = %d, want 1", rep.FullCount)
	}
	if len(rep.Partials) != 1 {
		t.Fatalf("Partials = %d, want 1\n%s", len(rep.Partials), rep.Format(w.reg))
	}
	pe := rep.Partials[0]
	if pe.Subject() != w.players[1] {
		t.Errorf("partial subject = %v, want P2", pe.Subject())
	}
	if len(pe.Missing) != 1 || pe.Missing[0] != 1 {
		t.Errorf("Missing = %v, want action 1", pe.Missing)
	}
	if len(pe.Suggestions) != 1 {
		t.Fatalf("Suggestions = %v", pe.Suggestions)
	}
	s := pe.Suggestions[0]
	if s.Src != w.clubs[1] || s.Dst != w.players[1] || s.Op != action.Add || s.Label != "squad" {
		t.Errorf("suggestion = %+v", s)
	}
	if got := s.Format(w.reg); !strings.Contains(got, "C2") || !strings.Contains(got, "P2") {
		t.Errorf("suggestion format = %q", got)
	}
	if rep.CompletionRate() != 0.5 {
		t.Errorf("CompletionRate = %v", rep.CompletionRate())
	}
}

func TestFindPartialsReverseDirection(t *testing.T) {
	// Club added the player but the player's page was never updated: the
	// unmatched right side of the outer join.
	w := newWorld(t)
	w.store.AddActions(action.Action{
		Op: action.Add, Edge: action.Edge{Src: w.clubs[0], Label: "squad", Dst: w.players[2]}, T: 30,
	})
	d := New(w.store)
	rep, err := d.FindPartials(reciprocalPattern(), w.window)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FullCount != 0 || len(rep.Partials) != 1 {
		t.Fatalf("full=%d partials=%d", rep.FullCount, len(rep.Partials))
	}
	pe := rep.Partials[0]
	// The coalesced assignment still names both entities.
	if pe.Assignment[0] != w.players[2] || pe.Assignment[1] != w.clubs[0] {
		t.Fatalf("assignment = %v", pe.Assignment)
	}
	if len(pe.Missing) != 1 || pe.Missing[0] != 0 {
		t.Fatalf("Missing = %v, want the current_club action", pe.Missing)
	}
	sug := pe.Suggestions[0]
	if sug.Src != w.players[2] || sug.Label != "current_club" || sug.Dst != w.clubs[0] {
		t.Fatalf("suggestion = %+v", sug)
	}
}

// TestPartialsOrderedByAssignmentText pins the order of a report's
// partial edits: ascending by the text of their assignments, so "[1 4]"
// comes before "[12 3]" and "[12 3]" before "[2 4]", whatever order the
// outer join produced them in (here "[12 3]", "[1 4]", then the unmatched
// right row "[2 4]").
func TestPartialsOrderedByAssignmentText(t *testing.T) {
	w := newWorld(t)
	for i := 4; i <= 12; i++ {
		w.players = append(w.players, w.reg.MustAdd(fmt.Sprintf("P%d", i), "FootballPlayer"))
	}
	if w.players[1] != 1 || w.players[2] != 2 || w.players[10] != 12 || w.clubs[0] != 3 || w.clubs[1] != 4 {
		t.Fatalf("fixture IDs moved: players %v, clubs %v", w.players, w.clubs)
	}
	w.join(0, 0, 5, true)
	w.join(10, 0, 10, false)
	w.join(1, 1, 20, false)
	w.store.AddActions(action.Action{
		Op: action.Add, Edge: action.Edge{Src: w.clubs[1], Label: "squad", Dst: w.players[2]}, T: 30,
	})
	rep, err := New(w.store).FindPartials(reciprocalPattern(), w.window)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, pe := range rep.Partials {
		got = append(got, fmt.Sprint(pe.Assignment))
	}
	if want := []string{"[1 4]", "[12 3]", "[2 4]"}; !slices.Equal(got, want) {
		t.Fatalf("partial edits in order %v, want %v", got, want)
	}
}

func TestFindPartialsNoSignalsWhenAllComplete(t *testing.T) {
	w := newWorld(t)
	w.join(0, 0, 10, true)
	w.join(1, 1, 20, true)
	d := New(w.store)
	rep, err := d.FindPartials(reciprocalPattern(), w.window)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Partials) != 0 || rep.FullCount != 2 {
		t.Fatalf("full=%d partials=%d\n%s", rep.FullCount, len(rep.Partials), rep.Format(w.reg))
	}
	if len(rep.Examples) != 2 {
		t.Fatalf("Examples = %v", rep.Examples)
	}
}

func TestFindPartialsRespectsWindow(t *testing.T) {
	// The completing edit lands outside the window: inside the window the
	// edit is partial (that is the whole point of windows — "an
	// inconsistency should be resolved at the earliest appropriate moment
	// but not earlier").
	w := newWorld(t)
	w.store.AddActions(
		action.Action{Op: action.Add, Edge: action.Edge{Src: w.players[0], Label: "current_club", Dst: w.clubs[0]}, T: 90},
		action.Action{Op: action.Add, Edge: action.Edge{Src: w.clubs[0], Label: "squad", Dst: w.players[0]}, T: 150},
	)
	d := New(w.store)
	rep, err := d.FindPartials(reciprocalPattern(), w.window) // [0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Partials) != 1 {
		t.Fatalf("expected 1 partial inside window, got %d", len(rep.Partials))
	}
	// A window covering both edits sees a complete realization.
	rep, err = d.FindPartials(reciprocalPattern(), action.Window{Start: 0, End: 200})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FullCount != 1 || len(rep.Partials) != 0 {
		t.Fatalf("wide window: full=%d partials=%d", rep.FullCount, len(rep.Partials))
	}
}

func TestFindPartialsFourActionTransfer(t *testing.T) {
	// The full transfer pattern with an error like the paper's Nikola
	// Mitrovic case: new club added him, old club never removed him.
	w := newWorld(t)
	full := pattern.Pattern{
		Vars: []taxonomy.Type{"FootballPlayer", "FootballClub", "FootballClub"},
		Actions: []pattern.AbstractAction{
			{Op: action.Add, Src: 0, Label: "current_club", Dst: 1},
			{Op: action.Remove, Src: 0, Label: "current_club", Dst: 2},
			{Op: action.Add, Src: 1, Label: "squad", Dst: 0},
			{Op: action.Remove, Src: 2, Label: "squad", Dst: 0},
		},
	}
	// P1 transfers C1 -> C2 completely.
	w.store.AddActions(
		action.Action{Op: action.Add, Edge: action.Edge{Src: w.players[0], Label: "current_club", Dst: w.clubs[1]}, T: 10},
		action.Action{Op: action.Remove, Edge: action.Edge{Src: w.players[0], Label: "current_club", Dst: w.clubs[0]}, T: 11},
		action.Action{Op: action.Add, Edge: action.Edge{Src: w.clubs[1], Label: "squad", Dst: w.players[0]}, T: 12},
		action.Action{Op: action.Remove, Edge: action.Edge{Src: w.clubs[0], Label: "squad", Dst: w.players[0]}, T: 13},
	)
	// P2 transfers C2 -> C1 but the old club kept him (missing action 3).
	w.store.AddActions(
		action.Action{Op: action.Add, Edge: action.Edge{Src: w.players[1], Label: "current_club", Dst: w.clubs[0]}, T: 20},
		action.Action{Op: action.Remove, Edge: action.Edge{Src: w.players[1], Label: "current_club", Dst: w.clubs[1]}, T: 21},
		action.Action{Op: action.Add, Edge: action.Edge{Src: w.clubs[0], Label: "squad", Dst: w.players[1]}, T: 22},
	)
	d := New(w.store)
	rep, err := d.FindPartials(full, w.window)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FullCount != 1 {
		t.Fatalf("FullCount = %d\n%s", rep.FullCount, rep.Format(w.reg))
	}
	var mitrovic *PartialEdit
	for i := range rep.Partials {
		pe := &rep.Partials[i]
		if pe.Subject() == w.players[1] && len(pe.Present) == 3 {
			mitrovic = pe
		}
	}
	if mitrovic == nil {
		t.Fatalf("three-quarters-complete partial not found\n%s", rep.Format(w.reg))
	}
	if len(mitrovic.Missing) != 1 {
		t.Fatalf("Missing = %v", mitrovic.Missing)
	}
	sug := mitrovic.Suggestions[0]
	if sug.Op != action.Remove || sug.Src != w.clubs[1] || sug.Dst != w.players[1] {
		t.Fatalf("suggestion = %+v", sug)
	}
}

func TestFindPartialsUnboundVariableSuggestion(t *testing.T) {
	// Only the old-club removal happened: the new club variable is never
	// bound, and suggestions must surface it as <some FootballClub>.
	w := newWorld(t)
	p := pattern.Pattern{
		Vars: []taxonomy.Type{"FootballPlayer", "FootballClub", "FootballClub"},
		Actions: []pattern.AbstractAction{
			{Op: action.Remove, Src: 0, Label: "current_club", Dst: 1},
			{Op: action.Add, Src: 0, Label: "current_club", Dst: 2},
		},
	}
	w.store.AddActions(action.Action{
		Op: action.Remove, Edge: action.Edge{Src: w.players[0], Label: "current_club", Dst: w.clubs[0]}, T: 10,
	})
	d := New(w.store)
	rep, err := d.FindPartials(p, w.window)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Partials) != 1 {
		t.Fatalf("partials = %d", len(rep.Partials))
	}
	pe := rep.Partials[0]
	if pe.Assignment[2] != taxonomy.NoEntity {
		t.Fatalf("new club should be unbound: %v", pe.Assignment)
	}
	text := pe.Suggestions[0].Format(w.reg)
	if !strings.Contains(text, "<some FootballClub>") {
		t.Fatalf("suggestion text = %q", text)
	}
}

func TestFindPartialsValidation(t *testing.T) {
	w := newWorld(t)
	d := New(w.store)
	if _, err := d.FindPartials(pattern.Pattern{}, w.window); err == nil {
		t.Error("invalid pattern should error")
	}
	disconnected := pattern.Pattern{
		Vars: []taxonomy.Type{"FootballPlayer", "FootballClub", "FootballClub", "FootballPlayer"},
		Actions: []pattern.AbstractAction{
			{Op: action.Add, Src: 0, Label: "current_club", Dst: 1},
			{Op: action.Add, Src: 3, Label: "current_club", Dst: 2},
		},
	}
	if _, err := d.FindPartials(disconnected, w.window); err == nil {
		t.Error("disconnected pattern should error")
	}
}

func TestFindPartialsEmptyWindow(t *testing.T) {
	w := newWorld(t)
	d := New(w.store)
	rep, err := d.FindPartials(reciprocalPattern(), action.Window{Start: 900, End: 999})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FullCount != 0 || len(rep.Partials) != 0 {
		t.Fatalf("empty window: %+v", rep)
	}
	if rep.CompletionRate() != 0 {
		t.Error("CompletionRate of empty report should be 0")
	}
}

func TestFindAllParallel(t *testing.T) {
	w := newWorld(t)
	w.join(0, 0, 10, true)
	w.join(1, 1, 20, false)
	w.join(2, 0, 60, false)
	d := New(w.store)
	tasks := []Task{
		{Pattern: reciprocalPattern(), Window: action.Window{Start: 0, End: 50}},
		{Pattern: reciprocalPattern(), Window: action.Window{Start: 50, End: 100}},
	}
	reports, err := d.FindAll(tasks, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("reports = %d", len(reports))
	}
	if len(reports[0].Partials) != 1 || len(reports[1].Partials) != 1 {
		t.Fatalf("partials = %d, %d", len(reports[0].Partials), len(reports[1].Partials))
	}
	if TotalPartials(reports) != 2 {
		t.Fatalf("TotalPartials = %d", TotalPartials(reports))
	}
	// Default worker count path.
	if _, err := d.FindAll(tasks, 0); err != nil {
		t.Fatal(err)
	}
}

func TestReportFormat(t *testing.T) {
	w := newWorld(t)
	w.join(0, 0, 10, true)
	w.join(1, 1, 20, false)
	d := New(w.store)
	rep, err := d.FindPartials(reciprocalPattern(), w.window)
	if err != nil {
		t.Fatal(err)
	}
	text := rep.Format(w.reg)
	if !strings.Contains(text, "1 complete, 1 partial") {
		t.Fatalf("Format = %q", text)
	}
}

// TestFindAllAggregatesErrors checks the partial-failure contract: every
// failed task contributes to the joined error, and the successful tasks'
// reports are still returned in their slots.
func TestFindAllAggregatesErrors(t *testing.T) {
	w := newWorld(t)
	w.join(0, 0, 10, true)
	w.join(1, 1, 20, false)
	d := New(w.store)
	bad := pattern.Pattern{} // fails validation inside FindPartials
	tasks := []Task{
		{Pattern: reciprocalPattern(), Window: action.Window{Start: 0, End: 50}},
		{Pattern: bad, Window: action.Window{Start: 0, End: 50}},
		{Pattern: reciprocalPattern(), Window: action.Window{Start: 50, End: 100}},
		{Pattern: bad, Window: action.Window{Start: 50, End: 100}},
	}
	reports, err := d.FindAll(tasks, 2)
	if err == nil {
		t.Fatal("failing tasks should surface an error")
	}
	// errors.Join renders one line per joined error.
	if n := len(strings.Split(err.Error(), "\n")); n != 2 {
		t.Errorf("joined error carries %d lines, want 2: %v", n, err)
	}
	if len(reports) != len(tasks) {
		t.Fatalf("reports = %d, want %d", len(reports), len(tasks))
	}
	if reports[0] == nil || reports[2] == nil {
		t.Error("successful tasks should keep their reports")
	}
	if reports[1] != nil || reports[3] != nil {
		t.Error("failed tasks should have nil reports")
	}
	if TotalPartials(reports) != 1 {
		t.Errorf("TotalPartials = %d, want 1", TotalPartials(reports))
	}
}
