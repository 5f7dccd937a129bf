package sql

import (
	"fmt"
	"sort"
	"strings"

	"wiclean/internal/action"
	"wiclean/internal/dump"
	"wiclean/internal/relational"
	"wiclean/internal/taxonomy"
)

// taxID converts an engine value back to an entity handle.
func taxID(v relational.Value) taxonomy.EntityID { return taxonomy.EntityID(v) }

// Dict interns strings as dense int32 values so string-valued attributes
// (relation labels) can live in the engine's integer tables.
type Dict struct {
	byName map[string]relational.Value
	names  []string
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{byName: map[string]relational.Value{}}
}

// ID interns s.
func (d *Dict) ID(s string) relational.Value {
	if v, ok := d.byName[s]; ok {
		return v
	}
	v := relational.Value(len(d.names))
	d.byName[s] = v
	d.names = append(d.names, s)
	return v
}

// Lookup returns the id of an already-interned string.
func (d *Dict) Lookup(s string) (relational.Value, bool) {
	v, ok := d.byName[s]
	return v, ok
}

// Name returns the string for an id, or "" when out of range or null.
func (d *Dict) Name(v relational.Value) string {
	if v < 0 || int(v) >= len(d.names) {
		return ""
	}
	return d.names[int(v)]
}

// Len returns the number of interned strings.
func (d *Dict) Len() int { return len(d.names) }

// Database is a queryable view of a revision history: the actions relation
// plus the label dictionary needed to render results.
type Database struct {
	Catalog Catalog
	Labels  *Dict
	History *dump.History
}

// NewDatabase builds the canonical relations over a history within a
// window:
//
//	actions(op, src, label, dst, t)   op: 1 = add, 0 = remove
//	reduced(op, src, label, dst, t)   the reduced action set of the window
//
// This is the relational face of Figure 1 — the same rows, queryable.
func NewDatabase(h *dump.History, w action.Window) *Database {
	db := &Database{Catalog: Catalog{}, Labels: NewDict(), History: h}
	cols := []string{"op", "src", "label", "dst", "t"}
	raw := relational.NewTable(cols...)
	all := h.AllActions(w)
	for _, a := range all {
		raw.Append(db.row(a))
	}
	red := relational.NewTable(cols...)
	for _, a := range action.Reduce(all) {
		red.Append(db.row(a))
	}
	db.Catalog["actions"] = raw
	db.Catalog["reduced"] = red
	return db
}

func (db *Database) row(a action.Action) relational.Row {
	op := relational.Value(0)
	if a.Op == action.Add {
		op = 1
	}
	return relational.Row{
		op,
		relational.Value(a.Edge.Src),
		db.Labels.ID(string(a.Edge.Label)),
		relational.Value(a.Edge.Dst),
		relational.Value(a.T),
	}
}

// Query runs SQL against the database.
func (db *Database) Query(query string) (*Result, error) {
	return Exec(db.Catalog, query)
}

// Render formats a result with entity and label names resolved: columns
// named src/dst (qualified or not) render entity names, label columns
// render labels, everything else renders numerically. Output rows are
// capped at limit (<=0 = all).
func (db *Database) Render(res *Result, limit int) string {
	reg := db.History.Registry()
	var b strings.Builder
	b.WriteString(strings.Join(res.Columns, " | "))
	b.WriteByte('\n')
	for i, row := range res.Table.Rows() {
		if limit > 0 && i >= limit {
			fmt.Fprintf(&b, "... (%d rows)\n", res.Table.Len())
			break
		}
		for j, v := range row {
			if j > 0 {
				b.WriteString(" | ")
			}
			switch {
			case v.IsNull():
				b.WriteString("NULL")
			case strings.HasSuffix(res.Columns[j], "src") || strings.HasSuffix(res.Columns[j], "dst"):
				b.WriteString(reg.Name(taxID(v)))
			case strings.HasSuffix(res.Columns[j], "label"):
				b.WriteString(db.Labels.Name(v))
			default:
				fmt.Fprintf(&b, "%d", v)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Tables lists the catalog's table names, sorted.
func (db *Database) Tables() []string {
	out := make([]string, 0, len(db.Catalog))
	for name := range db.Catalog {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
