package wikitext

import "strings"

// WikiTable is a parsed {| ... |} table: its caption and the link targets
// per row. Club squad lists, season tables and award registries — the
// "tables" half of the paper's "structured sections (such as infoboxes and
// tables)" — are encoded this way on Wikipedia.
type WikiTable struct {
	Caption string
	Rows    [][]string // link targets per row
}

// ParseTables extracts every top-level wiki table from the revision text.
// Syntax handled: "{|" ... "|}" blocks, "|+" captions, "|-" row
// separators, "|" and "||" cells, "!" header cells (ignored for links).
func ParseTables(text string) []WikiTable {
	var out []WikiTable
	lines := strings.Split(text, "\n")
	i := 0
	for i < len(lines) {
		if !strings.HasPrefix(strings.TrimSpace(lines[i]), "{|") {
			i++
			continue
		}
		table := WikiTable{}
		var row []string
		flushRow := func() {
			if len(row) > 0 {
				table.Rows = append(table.Rows, row)
				row = nil
			}
		}
		i++
		for i < len(lines) {
			line := strings.TrimSpace(lines[i])
			switch {
			case strings.HasPrefix(line, "|}"):
				flushRow()
				out = append(out, table)
				i++
				goto next
			case strings.HasPrefix(line, "|+"):
				table.Caption = strings.TrimSpace(line[2:])
			case strings.HasPrefix(line, "|-"):
				flushRow()
			case strings.HasPrefix(line, "!"):
				// header cells carry no structured links
			case strings.HasPrefix(line, "|"):
				for _, cell := range strings.Split(line[1:], "||") {
					row = append(row, ExtractWikiLinks(cell)...)
				}
			}
			i++
		}
		// Unterminated table: keep what was parsed.
		flushRow()
		out = append(out, table)
	next:
	}
	return out
}

// TableLinks extracts (relation, target) pairs from the revision's wiki
// tables: the table caption, normalized, is the relation each linked row
// participates in (a club page's "Current squad" table links its players
// under the squad relation). Captionless tables are skipped — without a
// caption the relation is undefined.
func TableLinks(text string) []Link {
	seen := map[Link]bool{}
	var out []Link
	for _, table := range ParseTables(text) {
		rel := NormalizeRelation(table.Caption)
		if rel == "" {
			continue
		}
		for _, row := range table.Rows {
			for _, target := range row {
				l := Link{Relation: rel, Target: target}
				if !seen[l] {
					seen[l] = true
					out = append(out, l)
				}
			}
		}
	}
	return out
}

// AllStructuredLinks unions the infobox and table links of a revision —
// the full structured-link extraction of the paper's preprocessing. Table
// syntax inside the infobox is no table: its pipes separate the
// template's fields, whose links are the infobox's. So the infobox is
// blanked out before the tables are read, and each [[link]] is read once.
func AllStructuredLinks(text string) []Link {
	links := StructuredLinks(text)
	seen := make(map[Link]bool, len(links))
	for _, l := range links {
		seen[l] = true
	}
	if start, end, ok := infoboxSpan(text); ok {
		// Keep the line breaks and put no blank where a table could start.
		blank := strings.Map(func(r rune) rune {
			if r == '\n' {
				return r
			}
			return '.'
		}, text[start:end])
		text = text[:start] + blank + text[end:]
	}
	for _, l := range TableLinks(text) {
		if !seen[l] {
			seen[l] = true
			links = append(links, l)
		}
	}
	return links
}
