// Revision-log forensics: the data-layer tour. Renders the merged timeline
// of a few entities in the paper's Figure 1 layout (with the R reduction
// column) and interrogates the log with the SQL layer — the "SQL engine
// underlying WC".
//
//	go run ./examples/revisionlog
package main

import (
	"fmt"
	"log"

	"wiclean"
	"wiclean/internal/action"
	"wiclean/internal/sql"
)

func main() {
	world, err := wiclean.GenerateWorld(wiclean.Soccer(), 60, 1)
	if err != nil {
		log.Fatal(err)
	}
	reg := world.Reg

	// 1. Figure 1: the merged revision table of three players across the
	// transfer window, R marking rows that survive reduction.
	fmt.Println("— Figure 1: merged revision timeline —")
	win := wiclean.Window{Start: 4 * wiclean.Week, End: 8 * wiclean.Week}
	as := world.History.ActionsOf(world.Seeds[:6], win)
	rows := action.Table(as, reg)
	if len(rows) > 14 {
		rows = rows[:14]
	}
	fmt.Print(action.FormatTable(rows))

	// 2. SQL over the log: the queries the miner's optimizations are made
	// of, written out by hand.
	fmt.Println("\n— SQL over the revision log —")
	db := sql.NewDatabase(world.History, win)
	queries := []string{
		"SELECT COUNT(DISTINCT src) FROM reduced WHERE op = 1",
		"SELECT label, COUNT(*) FROM reduced GROUP BY label",
	}
	for _, q := range queries {
		res, err := db.Query(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s\n%s\n", q, db.Render(res, 8))
	}

	// 3. The realization-growth query of §4.2, both as SQL text and as a
	// catalog query: players whose club reciprocated the transfer edit.
	fmt.Println("— the §4.2 realization-growth query —")
	ccID, _ := db.Labels.Lookup("current_club")
	sqID, _ := db.Labels.Lookup("squad")
	growth := fmt.Sprintf(
		"SELECT p.src, p.dst FROM reduced AS p JOIN reduced AS a "+
			"ON p.dst = a.src AND p.src = a.dst "+
			"WHERE p.op = 1 AND p.label = %d AND a.op = 1 AND a.label = %d", ccID, sqID)
	res, err := db.Query(growth)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(growth)
	fmt.Print(db.Render(res, 6))
	fmt.Printf("(%d complete join+reciprocate pairs in the window)\n", res.Table.Len())
}
