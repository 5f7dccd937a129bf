package main

import (
	"flag"
	"fmt"
	"strings"

	"wiclean/cmd/internal/cli"
	"wiclean/internal/action"
	"wiclean/internal/taxonomy"
)

// cmdLog prints the merged revision timeline of selected entities in the
// layout of the paper's Figure 1: one row per action with Subject /
// Relation / Object / Time and the R column marking which rows survive
// reduction.
func cmdLog(args []string) error {
	fs := flag.NewFlagSet("log", flag.ExitOnError)
	var wf cli.Flags
	wf.Register(fs)
	entities := fs.String("entities", "", "comma-separated entity names (empty = first 3 seeds)")
	from := fs.Int64("from", 0, "window start (seconds)")
	to := fs.Int64("to", 0, "window end (seconds; 0 = entire span)")
	limit := fs.Int("limit", 60, "max rows to print")
	if err := fs.Parse(args); err != nil {
		return err
	}
	lw, err := load(&wf)
	if err != nil {
		return err
	}
	var ids []taxonomy.EntityID
	if *entities == "" {
		n := 3
		if len(lw.Seeds) < n {
			n = len(lw.Seeds)
		}
		ids = lw.Seeds[:n]
	} else {
		for _, name := range strings.Split(*entities, ",") {
			name = strings.TrimSpace(name)
			id, ok := lw.Reg.Lookup(name)
			if !ok {
				return fmt.Errorf("unknown entity %q", name)
			}
			ids = append(ids, id)
		}
	}
	win := lw.Span
	if *from != 0 {
		win.Start = action.Time(*from)
	}
	if *to != 0 {
		win.End = action.Time(*to)
	}
	as := lw.Store.ActionsOf(ids, win)
	rows := action.Table(as, lw.Reg)
	if len(rows) > *limit {
		rows = rows[:*limit]
	}
	fmt.Print(action.FormatTable(rows))
	fmt.Printf("(%d actions; R=1 rows survive reduction)\n", len(as))
	return nil
}
