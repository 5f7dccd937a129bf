package main

import (
	"flag"
	"fmt"
	"strings"

	"wiclean/cmd/internal/cli"
	"wiclean/internal/action"
	"wiclean/internal/relational"
	"wiclean/internal/sql"
)

// cmdQuery runs ad-hoc SQL over a world's revision log — the relational
// face of Figure 1. Tables: actions(op, src, label, dst, t) and
// reduced(...); op is 1 for additions, 0 for removals; labels are interned
// (use -labels to list them with their ids).
func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	var wf cli.Flags
	wf.Register(fs)
	from := fs.Int64("from", 0, "window start (seconds)")
	to := fs.Int64("to", 0, "window end (seconds; 0 = entire span)")
	limit := fs.Int("limit", 40, "max rows to print")
	labels := fs.Bool("labels", false, "print the label dictionary and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	lw, err := load(&wf)
	if err != nil {
		return err
	}
	win := lw.Span
	if *from != 0 {
		win.Start = action.Time(*from)
	}
	if *to != 0 {
		win.End = action.Time(*to)
	}
	if lw.Mem == nil {
		return fmt.Errorf("query needs the materialized revision log; rerun with -source memory")
	}
	db := sql.NewDatabase(lw.Mem, win)
	if *labels {
		for i := 0; i < db.Labels.Len(); i++ {
			fmt.Printf("%4d  %s\n", i, db.Labels.Name(relational.Value(i)))
		}
		return nil
	}
	query := strings.TrimSpace(strings.Join(fs.Args(), " "))
	if query == "" {
		return fmt.Errorf("query requires a SQL statement, e.g.\n" +
			"  wiclean query -domain soccer \"SELECT COUNT(DISTINCT src) FROM reduced WHERE op = 1\"")
	}
	res, err := db.Query(query)
	if err != nil {
		return err
	}
	fmt.Print(db.Render(res, *limit))
	fmt.Printf("(%d rows)\n", res.Table.Len())
	return nil
}
