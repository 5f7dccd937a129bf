package wikitext

import (
	"reflect"
	"strings"
	"testing"
)

const neymarRev1 = `{{Infobox football biography
| name = Neymar
| current_club = [[Barcelona F.C.]]
| league = [[La Liga]]
| birth_place = [[Mogi das Cruzes]]
}}

'''Neymar''' is a Brazilian footballer who plays for [[Barcelona F.C.|Barça]].
See also [[Category:Brazilian footballers]].
`

const neymarRev2 = `{{Infobox football biography
| name = Neymar
| current_club = [[PSG F.C.|Paris Saint-Germain]]
| league = [[Ligue 1]]
| birth_place = [[Mogi das Cruzes]]
}}

'''Neymar''' is a Brazilian footballer. He moved in [[2017]].
`

func TestParseInfoboxBasic(t *testing.T) {
	box, ok := ParseInfobox(neymarRev1)
	if !ok {
		t.Fatal("infobox not found")
	}
	if box.Type != "football biography" {
		t.Errorf("Type = %q", box.Type)
	}
	if len(box.Fields) != 4 {
		t.Fatalf("Fields = %v", box.Fields)
	}
	if box.Fields[1].Name != "current_club" || !strings.Contains(box.Fields[1].Value, "Barcelona") {
		t.Errorf("field 1 = %+v", box.Fields[1])
	}
}

func TestParseInfoboxMissing(t *testing.T) {
	if _, ok := ParseInfobox("just some '''text''' with [[Links]]"); ok {
		t.Fatal("no infobox expected")
	}
	if _, ok := ParseInfobox("{{Infobox broken"); ok {
		t.Fatal("unbalanced infobox must not parse")
	}
	if _, ok := ParseInfobox(""); ok {
		t.Fatal("empty text")
	}
}

// TestParseInfoboxAfterNonASCII finds the infobox by its byte position in
// the text itself: text before it whose lower case has another length,
// such as invalid UTF-8 or a dotted capital I, must not shift it.
func TestParseInfoboxAfterNonASCII(t *testing.T) {
	for _, prefix := range []string{"\xff\xfe ", "İstanbul "} {
		box, ok := ParseInfobox(prefix + "{{Infobox club\n| ground = [[Ali Sami Yen]]\n}}")
		if !ok || box.Type != "club" || len(box.Fields) != 1 {
			t.Errorf("prefix %q: ParseInfobox = %+v, %v", prefix, box, ok)
		}
	}
}

func TestParseInfoboxNestedTemplates(t *testing.T) {
	text := `{{Infobox club
| name = PSG
| ground = {{small|[[Parc des Princes]]}}
| manager = [[Thomas Tuchel]]
}}`
	box, ok := ParseInfobox(text)
	if !ok {
		t.Fatal("infobox not found")
	}
	if len(box.Fields) != 3 {
		t.Fatalf("Fields = %+v", box.Fields)
	}
	links := StructuredLinks(text)
	found := false
	for _, l := range links {
		if l.Relation == "ground" && l.Target == "Parc des Princes" {
			found = true
		}
	}
	if !found {
		t.Fatalf("nested template link not extracted: %v", links)
	}
}

func TestSplitTopLevelRespectsSpans(t *testing.T) {
	parts := splitTopLevel("a|[[X|Y]]|{{t|u}}|b", '|')
	if len(parts) != 4 {
		t.Fatalf("parts = %q", parts)
	}
	if parts[1] != "[[X|Y]]" || parts[2] != "{{t|u}}" {
		t.Fatalf("parts = %q", parts)
	}
}

func TestExtractWikiLinks(t *testing.T) {
	got := ExtractWikiLinks("[[A]] text [[B|bee]] [[C#Section]] [[File:x.jpg]] [[]] [[ D ]]")
	want := []string{"A", "B", "C", "D"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ExtractWikiLinks = %v, want %v", got, want)
	}
	if got := ExtractWikiLinks("no links"); got != nil {
		t.Fatalf("no links expected, got %v", got)
	}
	if got := ExtractWikiLinks("[[unclosed"); got != nil {
		t.Fatalf("unclosed link: %v", got)
	}
}

func TestNormalizeRelation(t *testing.T) {
	cases := map[string]string{
		"current_club": "current_club",
		"Current Club": "current_club",
		"squad1":       "squad",
		"squad23":      "squad",
		" league ":     "league",
		"42":           "", // all digits strip to nothing
	}
	for in, want := range cases {
		if got := NormalizeRelation(in); got != want {
			t.Errorf("NormalizeRelation(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStructuredLinksIgnoresProse(t *testing.T) {
	links := StructuredLinks(neymarRev1)
	if len(links) != 3 {
		t.Fatalf("links = %v", links)
	}
	for _, l := range links {
		if l.Target == "Barça" || strings.HasPrefix(l.Target, "Category") {
			t.Errorf("prose/namespace link leaked: %v", l)
		}
	}
	// Sorted by relation then target.
	for i := 1; i < len(links); i++ {
		if links[i-1].Relation > links[i].Relation {
			t.Fatal("links not sorted")
		}
	}
}

func TestStructuredLinksNoInfobox(t *testing.T) {
	if got := StructuredLinks("prose with [[Link]]"); got != nil {
		t.Fatalf("expected nil, got %v", got)
	}
}

func TestStructuredLinksDedup(t *testing.T) {
	text := `{{Infobox club
| squad1 = [[Player A]]
| squad2 = [[Player A]]
}}`
	links := StructuredLinks(text)
	if len(links) != 1 {
		t.Fatalf("duplicate links not collapsed: %v", links)
	}
}

func TestDiffTransfer(t *testing.T) {
	d := Diff(neymarRev1, neymarRev2)
	wantAdded := []Link{{"current_club", "PSG F.C."}, {"league", "Ligue 1"}}
	wantRemoved := []Link{{"current_club", "Barcelona F.C."}, {"league", "La Liga"}}
	if !reflect.DeepEqual(d.Added, wantAdded) {
		t.Errorf("Added = %v, want %v", d.Added, wantAdded)
	}
	if !reflect.DeepEqual(d.Removed, wantRemoved) {
		t.Errorf("Removed = %v, want %v", d.Removed, wantRemoved)
	}
}

func TestDiffIdenticalAndEmpty(t *testing.T) {
	d := Diff(neymarRev1, neymarRev1)
	if len(d.Added) != 0 || len(d.Removed) != 0 {
		t.Fatalf("self diff = %+v", d)
	}
	d = Diff("", neymarRev1)
	if len(d.Added) != 3 || len(d.Removed) != 0 {
		t.Fatalf("diff from empty = %+v", d)
	}
	d = Diff(neymarRev1, "")
	if len(d.Added) != 0 || len(d.Removed) != 3 {
		t.Fatalf("diff to empty = %+v", d)
	}
}

func TestRenderInfoboxRoundTrip(t *testing.T) {
	links := []Link{
		{"current_club", "PSG F.C."},
		{"squad", "Neymar"},
		{"squad", "Kylian Mbappe"},
		{"league", "Ligue 1"},
	}
	text := RenderInfobox("football club", links)
	got := StructuredLinks(text)
	if len(got) != 4 {
		t.Fatalf("round trip = %v", got)
	}
	want := map[Link]bool{}
	for _, l := range links {
		want[l] = true
	}
	for _, l := range got {
		if !want[l] {
			t.Errorf("unexpected link after round trip: %v", l)
		}
	}
}

func TestRenderArticleParsesCleanly(t *testing.T) {
	links := []Link{{"current_club", "PSG F.C."}}
	text := RenderArticle("Neymar", "football biography", links)
	got := StructuredLinks(text)
	if len(got) != 1 || got[0] != links[0] {
		t.Fatalf("RenderArticle links = %v", got)
	}
}

// Property: render → parse is the identity on normalized link sets, across
// varied relation/target shapes.
func TestRenderParseRoundTripProperty(t *testing.T) {
	rels := []string{"current_club", "squad", "award", "member"}
	targets := []string{"Alpha", "Beta Club", "Gamma F.C.", "Delta (politician)"}
	seed := uint64(17)
	next := func(n int) int {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return int(seed % uint64(n))
	}
	for trial := 0; trial < 100; trial++ {
		n := next(6) + 1
		set := map[Link]bool{}
		for i := 0; i < n; i++ {
			set[Link{Relation: rels[next(len(rels))], Target: targets[next(len(targets))]}] = true
		}
		var links []Link
		for l := range set {
			links = append(links, l)
		}
		got := StructuredLinks(RenderInfobox("thing", links))
		if len(got) != len(set) {
			t.Fatalf("trial %d: %d links in, %d out (%v vs %v)", trial, len(set), len(got), links, got)
		}
		for _, l := range got {
			if !set[l] {
				t.Fatalf("trial %d: unexpected link %v", trial, l)
			}
		}
	}
}
