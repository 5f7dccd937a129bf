package sql

import (
	"fmt"

	"wiclean/internal/relational"
)

// Catalog maps table names to relations.
type Catalog map[string]*relational.Table

// Result is a query's output relation plus the column names as projected.
type Result struct {
	Columns []string
	Table   *relational.Table
}

// Exec parses and runs one query against the catalog.
func Exec(catalog Catalog, query string) (*Result, error) {
	q, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return Run(catalog, q)
}

// Run executes a parsed query. Joins are evaluated left to right with the
// relational engine (index joins); ON predicates become the engine's
// equality/inequality spec; WHERE is a residual selection; projection,
// DISTINCT and COUNT(DISTINCT ...) finish the plan — the same physical plan
// shape the miner uses for realization tables.
func Run(catalog Catalog, q *Query) (*Result, error) {
	left, err := load(catalog, q.From)
	if err != nil {
		return nil, err
	}
	work := qualify(left, q.Alias)

	engine := &relational.Engine{}
	for _, j := range q.Joins {
		right, err := load(catalog, j.Table)
		if err != nil {
			return nil, err
		}
		qr := qualify(right, j.Alias)
		spec, err := buildJoinSpec(work, qr, j.On)
		if err != nil {
			return nil, err
		}
		if j.FullOuter {
			work = engine.FullOuterJoin(work, qr, spec)
		} else {
			work = engine.Join(work, qr, spec)
		}
	}

	if len(q.Where) > 0 {
		pred, err := buildFilter(work, q.Where)
		if err != nil {
			return nil, err
		}
		work = work.Select(pred)
	}

	if len(q.GroupBy) > 0 {
		return runGroupBy(work, q)
	}

	// COUNT(*) without grouping is the row count.
	if len(q.Items) == 1 && q.Items[0].CountStar {
		out := relational.NewTable("count")
		out.Append(relational.Row{relational.Value(work.Len())})
		return &Result{Columns: out.Columns(), Table: out}, nil
	}

	// COUNT(DISTINCT col) short-circuits projection.
	if len(q.Items) == 1 && q.Items[0].CountDistinct {
		col, err := resolve(work, q.Items[0].Column)
		if err != nil {
			return nil, err
		}
		out := relational.NewTable("count")
		out.Append(relational.Row{relational.Value(work.DistinctCount(col))})
		return &Result{Columns: out.Columns(), Table: out}, nil
	}

	var idx []int
	if len(q.Items) == 1 && q.Items[0].Star {
		for i := 0; i < work.Arity(); i++ {
			idx = append(idx, i)
		}
	} else {
		for _, it := range q.Items {
			if it.Star || it.CountDistinct || it.CountStar {
				return nil, fmt.Errorf("sql: *, COUNT(*) and COUNT(DISTINCT) cannot mix with other items")
			}
			col, err := resolve(work, it.Column)
			if err != nil {
				return nil, err
			}
			idx = append(idx, col)
		}
	}
	out := work.Project(idx...)
	if q.Distinct {
		out = out.Dedup()
	}
	return &Result{Columns: out.Columns(), Table: out}, nil
}

func load(catalog Catalog, name string) (*relational.Table, error) {
	t, ok := catalog[name]
	if !ok {
		return nil, fmt.Errorf("sql: unknown table %q", name)
	}
	return t, nil
}

// qualify copies a table with alias-qualified column names ("a.col").
func qualify(t *relational.Table, alias string) *relational.Table {
	cols := make([]string, t.Arity())
	for i, c := range t.Columns() {
		cols[i] = alias + "." + c
	}
	out := relational.FromRows(cols, t.Rows())
	return out
}

// resolve finds the working-table column for a reference; unqualified names
// must be unambiguous.
func resolve(t *relational.Table, ref ColumnRef) (int, error) {
	if ref.Table != "" {
		i := t.ColumnIndex(ref.Table + "." + ref.Column)
		if i < 0 {
			return 0, fmt.Errorf("sql: unknown column %s", ref)
		}
		return i, nil
	}
	found := -1
	for i, c := range t.Columns() {
		if suffixAfterDot(c) == ref.Column {
			if found >= 0 {
				return 0, fmt.Errorf("sql: ambiguous column %q", ref.Column)
			}
			found = i
		}
	}
	if found < 0 {
		return 0, fmt.Errorf("sql: unknown column %q", ref.Column)
	}
	return found, nil
}

func suffixAfterDot(s string) string {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '.' {
			return s[i+1:]
		}
	}
	return s
}

// buildJoinSpec translates ON predicates into the engine's JoinSpec. Each
// equality/inequality must compare one left-side column with one
// right-side column.
func buildJoinSpec(l, r *relational.Table, on []Predicate) (relational.JoinSpec, error) {
	spec := relational.JoinSpec{}
	for _, p := range on {
		if p.IsLiteral || p.Op == "isnull" || p.Op == "notnull" {
			return spec, fmt.Errorf("sql: ON supports only column comparisons, got %s", p)
		}
		li, lerr := resolve(l, p.Left)
		ri, rerr := resolve(r, p.Right)
		if lerr != nil || rerr != nil {
			// Maybe the sides are swapped.
			li2, lerr2 := resolve(l, p.Right)
			ri2, rerr2 := resolve(r, p.Left)
			if lerr2 != nil || rerr2 != nil {
				return spec, fmt.Errorf("sql: ON predicate %s does not bridge the join sides", p)
			}
			li, ri = li2, ri2
		}
		switch p.Op {
		case "=":
			spec.EqL = append(spec.EqL, li)
			spec.EqR = append(spec.EqR, ri)
		case "<>":
			spec.NeqL = append(spec.NeqL, li)
			spec.NeqR = append(spec.NeqR, ri)
		default:
			return spec, fmt.Errorf("sql: unsupported ON operator %q", p.Op)
		}
	}
	for i := 0; i < l.Arity(); i++ {
		spec.LOut = append(spec.LOut, i)
	}
	for i := 0; i < r.Arity(); i++ {
		spec.ROut = append(spec.ROut, i)
	}
	return spec, nil
}

// buildFilter compiles WHERE conjuncts into a row predicate.
func buildFilter(t *relational.Table, where []Predicate) (func(relational.Row) bool, error) {
	type check struct {
		op       string
		li, ri   int
		lit      relational.Value
		literal  bool
		nullTest bool
	}
	var checks []check
	for _, p := range where {
		li, err := resolve(t, p.Left)
		if err != nil {
			return nil, err
		}
		switch {
		case p.Op == "isnull" || p.Op == "notnull":
			checks = append(checks, check{op: p.Op, li: li, nullTest: true})
		case p.IsLiteral:
			checks = append(checks, check{op: p.Op, li: li, lit: relational.Value(p.RightLit), literal: true})
		default:
			ri, err := resolve(t, p.Right)
			if err != nil {
				return nil, err
			}
			checks = append(checks, check{op: p.Op, li: li, ri: ri})
		}
	}
	return func(r relational.Row) bool {
		for _, c := range checks {
			lv := r[c.li]
			switch {
			case c.nullTest:
				if c.op == "isnull" && !lv.IsNull() {
					return false
				}
				if c.op == "notnull" && lv.IsNull() {
					return false
				}
			case c.literal:
				if lv.IsNull() {
					return false
				}
				if c.op == "=" && lv != c.lit {
					return false
				}
				if c.op == "<>" && lv == c.lit {
					return false
				}
			default:
				rv := r[c.ri]
				switch c.op {
				case "=":
					if lv.IsNull() || rv.IsNull() || lv != rv {
						return false
					}
				case "<>":
					if !lv.IsNull() && !rv.IsNull() && lv == rv {
						return false
					}
				}
			}
		}
		return true
	}, nil
}

// runGroupBy evaluates GROUP BY queries. Every non-aggregate select item
// must appear in the GROUP BY list; supported aggregates are COUNT(*) and
// COUNT(DISTINCT col).
func runGroupBy(work *relational.Table, q *Query) (*Result, error) {
	keyCols := make([]int, len(q.GroupBy))
	for i, g := range q.GroupBy {
		c, err := resolve(work, g)
		if err != nil {
			return nil, err
		}
		keyCols[i] = c
	}
	inKeys := func(col int) bool {
		for _, k := range keyCols {
			if k == col {
				return true
			}
		}
		return false
	}

	type itemPlan struct {
		keyCol        int // >= 0 for plain grouped columns
		countStar     bool
		distinctCol   int // for COUNT(DISTINCT col)
		countDistinct bool
	}
	var plans []itemPlan
	var outCols []string
	for _, it := range q.Items {
		switch {
		case it.Star:
			return nil, fmt.Errorf("sql: SELECT * with GROUP BY is not supported")
		case it.CountStar:
			plans = append(plans, itemPlan{keyCol: -1, countStar: true})
			outCols = append(outCols, "count")
		case it.CountDistinct:
			c, err := resolve(work, it.Column)
			if err != nil {
				return nil, err
			}
			plans = append(plans, itemPlan{keyCol: -1, countDistinct: true, distinctCol: c})
			outCols = append(outCols, "count_distinct")
		default:
			c, err := resolve(work, it.Column)
			if err != nil {
				return nil, err
			}
			if !inKeys(c) {
				return nil, fmt.Errorf("sql: column %s is neither aggregated nor grouped", it.Column)
			}
			plans = append(plans, itemPlan{keyCol: c})
			outCols = append(outCols, work.Columns()[c])
		}
	}

	type group struct {
		sample   relational.Row
		count    int
		distinct map[relational.Value]bool
	}
	groups := map[uint64][]*group{}
	var order []*group
	for _, row := range work.Rows() {
		h := groupHash(row, keyCols)
		var g *group
		for _, cand := range groups[h] {
			if sameKeys(cand.sample, row, keyCols) {
				g = cand
				break
			}
		}
		if g == nil {
			g = &group{sample: row.Clone(), distinct: map[relational.Value]bool{}}
			groups[h] = append(groups[h], g)
			order = append(order, g)
		}
		g.count++
		for _, pl := range plans {
			if pl.countDistinct && !row[pl.distinctCol].IsNull() {
				g.distinct[row[pl.distinctCol]] = true
			}
		}
	}

	out := relational.NewTable(outCols...)
	for _, g := range order {
		row := make(relational.Row, 0, len(plans))
		for _, pl := range plans {
			switch {
			case pl.countStar:
				row = append(row, relational.Value(g.count))
			case pl.countDistinct:
				row = append(row, relational.Value(len(g.distinct)))
			default:
				row = append(row, g.sample[pl.keyCol])
			}
		}
		out.Append(row)
	}
	return &Result{Columns: out.Columns(), Table: out}, nil
}

func groupHash(r relational.Row, keys []int) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	for _, k := range keys {
		u := uint32(r[k])
		for shift := 0; shift < 32; shift += 8 {
			h ^= uint64(byte(u >> shift))
			h *= prime64
		}
	}
	return h
}

func sameKeys(a, b relational.Row, keys []int) bool {
	for _, k := range keys {
		if a[k] != b[k] {
			return false
		}
	}
	return true
}
