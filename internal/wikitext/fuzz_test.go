package wikitext

import (
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// roundTripRelation is the relation shape RenderInfobox writes back
// unchanged: NormalizeRelation maps it to itself, and the numbered fields
// of a multi-valued relation fold back into it.
var roundTripRelation = regexp.MustCompile(`^[a-z_]+$`)

// markupChars are the characters a target may not hold to survive
// RenderInfobox: brackets and braces end the link or the template, and a
// pipe, an anchor or a colon is cut or dropped by ExtractWikiLinks.
const markupChars = "[]{}|#:"

// FuzzDiff feeds pairs of revision texts to the revision differ. The seeds
// are the wikilink edge cases a wikitext link validator has to handle:
// pipe tricks, section links, trailing characters, colon-prefixed
// namespace links, nested templates, "||" table cells and unterminated
// markup. For every pair it checks that
//   - a self diff is empty and Diff(a, b).Added is Diff(b, a).Removed;
//   - every extracted target is trimmed, non-empty and holds no pipe,
//     anchor, closing brackets or namespace colon;
//   - a text yields at most len(text)/5 links, the length of "[[x]]";
//   - StructuredLinks(RenderInfobox(box, links)) returns the links
//     deduplicated and sorted, for the extracted links whose relation
//     matches [a-z_]+ and whose target holds no markup character.
func FuzzDiff(f *testing.F) {
	for _, pair := range [][2]string{
		{neymarRev1, neymarRev2},
		{"{{Infobox officeholder\n| party = [[Labour Party (UK)|]]\n}}", // pipe trick
			"{{Infobox officeholder\n| party = [[Conservative Party (UK)|]]\n}}"},
		{"{{Infobox football biography\n| current_club = [[Arsenal F.C.#History|Arsenal]]\n}}", // section link
			"{{Infobox football biography\n| current_club = [[#Career]] [[Chelsea F.C.#Squad]]\n}}"},
		{"{{Infobox club\n| squad1 = [[Striker]]s\n| squad2 = [[Keeper]]'s\n}}", // trailing characters
			"{{Infobox club\n| squad1 = [[Striker]]\n}}"},
		{"{{Infobox club\n| league = [[:Category:Leagues]] [[:Premier League]]\n| crest = [[File:Crest.png|thumb]]\n}}",
			"{{Infobox club\n| league = [[Category:Leagues]]\n}}"},
		{"{{Infobox club\n| ground = {{nowrap|[[Old Trafford]]}} {{flag|{{small|[[England]]}}}}\n}}", // nested templates
			"{{Infobox club\n| ground = {{nowrap|[[Anfield]]}}\n}}"},
		{"{|\n|+ Current squad\n|-\n| [[A]] || [[B (footballer)|]] || [[C#Career]]\n|}", // table cells
			"{|\n|+ Current squad\n|-\n| [[A]] || plain || [[D]]\n|}"},
		{"{{Infobox club\n| squad = [[Unclosed\n}}", // unterminated [[
			"{{Infobox club\n| squad = [[Player]]\n"}, // unterminated {{
		{"{|\n|+ Squad\n| [[A]]\n", "[[Prose link]] {{Infobox"},
		{"", ""},
	} {
		f.Add(pair[0], pair[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		if d := Diff(a, a); len(d.Added)+len(d.Removed) != 0 {
			t.Fatalf("self diff of %q = %+v", a, d)
		}
		ab, ba := Diff(a, b), Diff(b, a)
		if !reflect.DeepEqual(ab.Added, ba.Removed) || !reflect.DeepEqual(ab.Removed, ba.Added) {
			t.Fatalf("Diff(a, b) = %+v but Diff(b, a) = %+v", ab, ba)
		}

		var fit []Link // extracted links that round-trip through RenderInfobox
		for _, text := range []string{a, b} {
			for _, target := range ExtractWikiLinks(text) {
				checkTarget(t, target)
			}
			links := AllStructuredLinks(text)
			if len(links) > len(text)/5 {
				t.Fatalf("%d links from %d bytes: %v", len(links), len(text), links)
			}
			for _, l := range links {
				checkTarget(t, l.Target)
				if roundTripRelation.MatchString(l.Relation) && !strings.ContainsAny(l.Target, markupChars) {
					fit = append(fit, l)
				}
			}
		}

		want := dedupSorted(fit)
		if got := StructuredLinks(RenderInfobox("fuzz", fit)); !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip of %v = %v, want %v", fit, got, want)
		}
	})
}

// checkTarget fails the test unless target is a plain article title.
func checkTarget(t *testing.T, target string) {
	t.Helper()
	if target == "" || target != strings.TrimSpace(target) ||
		strings.ContainsAny(target, "|#:") || strings.Contains(target, "]]") {
		t.Fatalf("extracted target %q", target)
	}
}

// dedupSorted is links without repeats, sorted by relation then target,
// or nil when there are none.
func dedupSorted(links []Link) []Link {
	seen := map[Link]bool{}
	var out []Link
	for _, l := range links {
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Relation != out[j].Relation {
			return out[i].Relation < out[j].Relation
		}
		return out[i].Target < out[j].Target
	})
	return out
}
