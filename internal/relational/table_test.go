package relational

import (
	"testing"
)

func TestTableBasics(t *testing.T) {
	tb := NewTable("a", "b")
	if tb.Arity() != 2 || tb.Len() != 0 {
		t.Fatalf("fresh table: arity %d, len %d", tb.Arity(), tb.Len())
	}
	tb.Append(Row{1, 2})
	tb.Append(Row{3, 4})
	if tb.Len() != 2 {
		t.Fatalf("Len = %d", tb.Len())
	}
	if tb.Row(1)[1] != 4 {
		t.Fatalf("Row(1) = %v", tb.Row(1))
	}
	if tb.ColumnIndex("b") != 1 || tb.ColumnIndex("z") != -1 {
		t.Error("ColumnIndex misbehaves")
	}
}

func TestAppendArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Append with wrong arity should panic")
		}
	}()
	NewTable("a").Append(Row{1, 2})
}

func TestAppendCopiesRow(t *testing.T) {
	tb := NewTable("a")
	r := Row{7}
	tb.Append(r)
	r[0] = 99
	if tb.Row(0)[0] != 7 {
		t.Fatal("Append must copy the row")
	}
}

func TestFromRowsAndClone(t *testing.T) {
	tb := FromRows([]string{"x", "y"}, []Row{{1, 2}, {3, 4}})
	c := tb.Clone()
	c.Row(0)[0] = 42
	if tb.Row(0)[0] != 1 {
		t.Fatal("Clone must deep-copy rows")
	}
}

func TestProject(t *testing.T) {
	tb := FromRows([]string{"a", "b", "c"}, []Row{{1, 2, 3}, {4, 5, 6}})
	p := tb.Project(2, 0)
	if p.Arity() != 2 || p.Columns()[0] != "c" || p.Columns()[1] != "a" {
		t.Fatalf("Project schema = %v", p.Columns())
	}
	if p.Row(0)[0] != 3 || p.Row(0)[1] != 1 {
		t.Fatalf("Project row = %v", p.Row(0))
	}
}

func TestSelect(t *testing.T) {
	tb := FromRows([]string{"a"}, []Row{{1}, {2}, {3}})
	s := tb.Select(func(r Row) bool { return r[0] >= 2 })
	if s.Len() != 2 {
		t.Fatalf("Select len = %d", s.Len())
	}
}

func TestDedup(t *testing.T) {
	tb := FromRows([]string{"a", "b"}, []Row{{1, 2}, {1, 2}, {3, Null}, {3, Null}, {1, 3}})
	d := tb.Dedup()
	if d.Len() != 3 {
		t.Fatalf("Dedup len = %d, want 3", d.Len())
	}
}

func TestDistinctCountSkipsNulls(t *testing.T) {
	tb := FromRows([]string{"a"}, []Row{{1}, {1}, {2}, {Null}, {Null}})
	if n := tb.DistinctCount(0); n != 2 {
		t.Fatalf("DistinctCount = %d, want 2", n)
	}
	vals := tb.DistinctValues(0)
	if len(vals) != 2 || vals[0] != 1 || vals[1] != 2 {
		t.Fatalf("DistinctValues = %v", vals)
	}
}

func TestStringRenders(t *testing.T) {
	tb := FromRows([]string{"a"}, []Row{{1}, {Null}})
	if s := tb.String(); s == "" {
		t.Error("String should render")
	}
	big := NewTable("a")
	for i := 0; i < 30; i++ {
		big.Append(Row{Value(i)})
	}
	if s := big.String(); s == "" {
		t.Error("big table String should truncate, not fail")
	}
}
