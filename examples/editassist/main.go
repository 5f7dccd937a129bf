// Edit-assistance walkthrough: the §5 on-line scenario. WiClean mines a
// year of history, learns which patterns recur periodically (transfer
// windows every season), and then reacts to a live editing session —
// telling the editor which companion edits are already done and which are
// still missing.
//
//	go run ./examples/editassist
package main

import (
	"fmt"
	"log"

	"wiclean"
)

func main() {
	// Two simulated seasons, so yearly scenarios recur and the periodicity
	// detector has something to find.
	span := wiclean.Window{Start: 0, End: 2 * wiclean.Year}
	world, err := wiclean.GenerateWorldSpanning(wiclean.Soccer(), 150, 1, span)
	if err != nil {
		log.Fatal(err)
	}
	cfg := wiclean.DefaultConfig()
	sys := wiclean.NewSystem(world.History, cfg)
	if _, err := sys.Mine(world.Seeds, "FootballPlayer", world.Span); err != nil {
		log.Fatal(err)
	}

	// Periodic patterns: which updates recur on a schedule? The transfer
	// pattern fires in the same weeks of both seasons — next summer's
	// window is predicted from the period.
	periodic, err := sys.PeriodicPatterns(0.5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d patterns recur periodically:\n", len(periodic))
	for _, p := range periodic {
		fmt.Printf("  every ~%dd (%d occurrences): %s\n", p.Period/wiclean.Day, len(p.Occurrences), p.Pattern)
	}

	assistant, err := sys.Assistant()
	if err != nil {
		log.Fatal(err)
	}

	// A live editing session: the editor adds a current_club link on a
	// player page during the transfer window. What else should they do?
	reg := world.Reg
	player := world.Seeds[0]
	club, _ := reg.Lookup("Club 0000")
	now := 5 * wiclean.Week
	live := wiclean.Action{
		Op:   wiclean.Add,
		Edge: wiclean.Edge{Src: player, Label: "current_club", Dst: club},
		T:    now,
	}
	fmt.Printf("\nlive edit: + (%s, current_club, %s)\n\n", reg.Name(player), reg.Name(club))
	advices, err := assistant.Suggest(live, now)
	if err != nil {
		log.Fatal(err)
	}
	for i, adv := range advices {
		if i >= 3 {
			fmt.Printf("... and %d more matching patterns\n", len(advices)-3)
			break
		}
		fmt.Print(adv.Format(reg))
		fmt.Println()
	}

	// Now simulate that the club page already reciprocated: the assistant
	// should mark that companion edit as done.
	world.History.AddActions(wiclean.Action{
		Op:   wiclean.Add,
		Edge: wiclean.Edge{Src: club, Label: "squad", Dst: player},
		T:    now + 1,
	})
	fmt.Println("after the club page reciprocates:")
	if advices, err = assistant.Suggest(live, now); err != nil {
		log.Fatal(err)
	}
	if len(advices) > 0 {
		fmt.Print(advices[0].Format(reg))
	}
}
