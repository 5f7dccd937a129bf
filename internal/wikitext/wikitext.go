// Package wikitext implements the slice of MediaWiki markup WiClean needs:
// parsing infoboxes out of article revisions, extracting the typed
// inter-links they carry, and diffing consecutive revisions of an article
// into link add/remove actions.
//
// The paper extracts actions from crawled revision histories of the
// structured sections of Wikipedia ("such as infoboxes and tables", §1);
// this package is that extraction pipeline. Free-text links are
// deliberately ignored — the paper's future-work section leaves free text
// out of scope.
package wikitext

import (
	"sort"
	"strings"
)

// Link is one structured link: the infobox field it appears under (the
// relation label) and the target article title.
type Link struct {
	Relation string
	Target   string
}

// Infobox is a parsed {{Infobox ...}} template: its declared type and its
// fields in document order.
type Infobox struct {
	Type   string
	Fields []Field
}

// Field is one "| name = value" infobox parameter.
type Field struct {
	Name  string
	Value string
}

// ParseInfobox locates the first {{Infobox ...}} template in the revision
// text and parses it. The bool result reports whether an infobox was found.
// Nested templates inside field values are balanced over, not interpreted.
func ParseInfobox(text string) (Infobox, bool) {
	start, end, ok := infoboxSpan(text)
	if !ok {
		return Infobox{}, false
	}
	body := text[start+2 : end-2] // inside the outer braces

	// Split on top-level pipes only (pipes inside [[..]] or {{..}} belong
	// to the value).
	parts := splitTopLevel(body, '|')
	box := Infobox{}
	if len(parts) > 0 {
		// "Infobox football biography" -> type "football biography".
		head := strings.TrimSpace(parts[0])
		box.Type = strings.TrimSpace(strings.TrimPrefix(strings.TrimPrefix(head, "Infobox"), "infobox"))
		if strings.HasPrefix(strings.ToLower(head), "infobox") {
			box.Type = strings.TrimSpace(head[len("infobox"):])
		}
	}
	for _, part := range parts[1:] {
		eq := strings.IndexByte(part, '=')
		if eq < 0 {
			continue // positional parameter; infobox links are named
		}
		name := strings.TrimSpace(part[:eq])
		value := strings.TrimSpace(part[eq+1:])
		if name == "" {
			continue
		}
		box.Fields = append(box.Fields, Field{Name: name, Value: value})
	}
	return box, true
}

// infoboxSpan returns the byte span [start, end) of the first
// {{Infobox ...}} template in text, outer braces included, matching the
// name case-insensitively and the close by counting {{ }} nesting. It
// reports false when there is none or it is never closed.
func infoboxSpan(text string) (start, end int, ok bool) {
	const open = "{{infobox"
	start = -1
	for i := 0; i+len(open) <= len(text); i++ {
		if strings.EqualFold(text[i:i+len(open)], open) {
			start = i
			break
		}
	}
	if start < 0 {
		return 0, 0, false
	}
	depth := 0
	for i := start; i < len(text)-1; i++ {
		switch {
		case text[i] == '{' && text[i+1] == '{':
			depth++
			i++
		case text[i] == '}' && text[i+1] == '}':
			depth--
			i++
			if depth == 0 {
				return start, i + 1, true
			}
		}
	}
	return 0, 0, false
}

// splitTopLevel splits s on sep occurrences that are outside [[...]] and
// {{...}} spans.
func splitTopLevel(s string, sep byte) []string {
	var parts []string
	var brackets, braces int
	last := 0
	for i := 0; i < len(s); i++ {
		if i+1 < len(s) {
			switch {
			case s[i] == '[' && s[i+1] == '[':
				brackets++
				i++
				continue
			case s[i] == ']' && s[i+1] == ']':
				if brackets > 0 {
					brackets--
				}
				i++
				continue
			case s[i] == '{' && s[i+1] == '{':
				braces++
				i++
				continue
			case s[i] == '}' && s[i+1] == '}':
				if braces > 0 {
					braces--
				}
				i++
				continue
			}
		}
		if s[i] == sep && brackets == 0 && braces == 0 {
			parts = append(parts, s[last:i])
			last = i + 1
		}
	}
	parts = append(parts, s[last:])
	return parts
}

// ExtractWikiLinks returns the [[Target]] / [[Target|display]] link targets
// in s, in order of appearance. Targets are trimmed; section anchors
// ("Article#Section") are stripped to the article title; empty targets and
// non-article namespaces (File:, Category:, ...) are dropped. A leading
// colon only makes a link of what would embed or categorize, so
// [[:Category:X]] is dropped too and [[:Article]] links Article.
func ExtractWikiLinks(s string) []string {
	var out []string
	for i := 0; i+1 < len(s); i++ {
		if s[i] != '[' || s[i+1] != '[' {
			continue
		}
		end := strings.Index(s[i+2:], "]]")
		if end < 0 {
			break
		}
		inner := s[i+2 : i+2+end]
		i = i + 2 + end + 1
		if bar := strings.IndexByte(inner, '|'); bar >= 0 {
			inner = inner[:bar]
		}
		if hash := strings.IndexByte(inner, '#'); hash >= 0 {
			inner = inner[:hash]
		}
		inner = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(inner), ":"))
		if inner == "" || strings.IndexByte(inner, ':') >= 0 {
			continue // File:, Category:, Template:, interwiki, ...
		}
		out = append(out, inner)
	}
	return out
}

// NormalizeRelation maps an infobox field name to a relation label:
// lower-cased, spaces collapsed to underscores, trailing list indices
// stripped so that "squad1", "squad2" unify to "squad".
func NormalizeRelation(field string) string {
	f := strings.ToLower(strings.TrimSpace(field))
	f = strings.ReplaceAll(f, " ", "_")
	// Strip a trailing numeric list index.
	end := len(f)
	for end > 0 && f[end-1] >= '0' && f[end-1] <= '9' {
		end--
	}
	return f[:end]
}

// StructuredLinks extracts every (relation, target) pair from the infobox
// of a revision text. It returns nil when the revision has no infobox.
// Duplicate pairs are collapsed (a field linking the same article twice is
// one relationship) and the result is sorted for determinism.
func StructuredLinks(text string) []Link {
	box, ok := ParseInfobox(text)
	if !ok {
		return nil
	}
	seen := map[Link]bool{}
	var out []Link
	for _, f := range box.Fields {
		rel := NormalizeRelation(f.Name)
		if rel == "" {
			continue
		}
		for _, target := range ExtractWikiLinks(f.Value) {
			l := Link{Relation: rel, Target: target}
			if !seen[l] {
				seen[l] = true
				out = append(out, l)
			}
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

// LinkDiff is the structured-link delta between two revisions.
type LinkDiff struct {
	Added   []Link
	Removed []Link
}

// Diff computes the structured links (infobox and table) added and removed
// between the prev and cur revision texts of the same article. Each side
// lists infobox links sorted, then table links in table order.
func Diff(prev, cur string) LinkDiff {
	pl := AllStructuredLinks(prev)
	cl := AllStructuredLinks(cur)
	pset := make(map[Link]bool, len(pl))
	for _, l := range pl {
		pset[l] = true
	}
	cset := make(map[Link]bool, len(cl))
	for _, l := range cl {
		cset[l] = true
	}
	var d LinkDiff
	for _, l := range cl {
		if !pset[l] {
			d.Added = append(d.Added, l)
		}
	}
	for _, l := range pl {
		if !cset[l] {
			d.Removed = append(d.Removed, l)
		}
	}
	return d
}
