// Command wiclean is the WiClean command-line interface: generate synthetic
// revision worlds, mine edit patterns and their windows, detect partial
// (likely erroneous) edits, and query the edit assistant.
//
//	wiclean gen     -domain soccer -seeds 500 -out data/
//	wiclean mine    -data data/            # or: -domain soccer -seeds 500
//	wiclean mine    -data data/ -source dump   # stream actions.jsonl lazily
//	wiclean mine    -domain soccer -source http \
//	                -source-url http://host:8754/history
//	wiclean mine    -data data/ -save-model model.json -checkpoint mine.ckpt
//	wiclean mine    -data data/ -load-model model.json  # warm start, no mining
//	wiclean detect  -data data/ -model model.json
//	wiclean suggest -data data/ -subject "FootballPlayer 0001" -op + \
//	                -label current_club -object "Club 0004" -at 2500000
package main

import (
	"flag"
	"fmt"
	"os"

	"wiclean/cmd/internal/cli"
	"wiclean/internal/action"
	"wiclean/internal/core"
	"wiclean/internal/mining"
	"wiclean/internal/model"
	"wiclean/internal/obs/trace"
	"wiclean/internal/synth"
	"wiclean/internal/windows"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "mine":
		err = cmdMine(os.Args[2:])
	case "detect":
		err = cmdDetect(os.Args[2:])
	case "suggest":
		err = cmdSuggest(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "log":
		err = cmdLog(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		usage()
		err = fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wiclean:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: wiclean <gen|mine|detect|suggest|query|log> [flags]

  gen      generate a synthetic revision world and write it to a directory
  mine     mine edit patterns and their time windows (Algorithm 2)
  detect   mine, then flag partial edits with correction suggestions (Algorithm 3)
  suggest  ask the edit assistant about one live edit
  query    run SQL over the revision log (tables: actions, reduced)
  log      print the merged revision timeline of entities (Figure 1 layout)

run 'wiclean <subcommand> -h' for flags`)
}

// load resolves the world flags and reports the action records the
// memory load skipped.
func load(wf *cli.Flags) (*cli.World, error) {
	lw, err := wf.Load(nil)
	if err != nil {
		return nil, err
	}
	if lw.Skipped > 0 {
		fmt.Fprintf(os.Stderr, "wiclean: skipped %d action records referencing unknown entities\n", lw.Skipped)
	}
	return lw, nil
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	var wf cli.Flags
	wf.Register(fs)
	out := fs.String("out", "wiclean-data", "output directory")
	withRevisions := fs.Bool("revisions", true, "also write raw wikitext revisions (revisions.jsonl)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	d, err := synth.DomainByName(wf.Domain)
	if err != nil {
		return err
	}
	p := synth.DefaultParams(d, wf.Seeds)
	p.Seed = wf.Seed
	w, err := synth.Generate(p)
	if err != nil {
		return err
	}
	if err := cli.WriteDir(*out, w, *withRevisions); err != nil {
		return err
	}
	st := w.TruthStats()
	fmt.Printf("generated %s world: %d entities, %d actions, %d scenario instances\n",
		wf.Domain, w.Reg.Len(), w.History.ActionCount(), st.Instances)
	fmt.Printf("injected %d partial edits (%d real errors, %d corrected next year) into %s\n",
		st.Errors, st.Real, st.Corrected, *out)
	return nil
}

func makeSystem(wf *cli.Flags) (*core.System, *cli.World, error) {
	lw, err := load(wf)
	if err != nil {
		return nil, nil, err
	}
	return core.New(lw.Store, wf.Config()), lw, nil
}

func cmdMine(args []string) error {
	fs := flag.NewFlagSet("mine", flag.ExitOnError)
	var wf cli.Flags
	wf.Register(fs)
	saveModel := fs.String("save-model", "", "write the mined model (versioned wiclean-model format) to this file")
	loadModel := fs.String("load-model", "", "serve a previously saved model instead of mining (provenance-checked)")
	checkpoint := fs.String("checkpoint", "", "persist refinement state to this file; an interrupted run resumes from it")
	traceOut := fs.String("trace-out", "", "append per-window trace exports to this JSONL file (analyze with wiclean-trace)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sys, lw, err := makeSystem(&wf)
	if err != nil {
		return err
	}
	if *traceOut != "" {
		f, err := os.OpenFile(*traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		sys.WithTracer(trace.New(trace.Config{
			Service: "wiclean-mine",
			Output:  f,
		}))
	}
	// The provenance fingerprint guards every model artifact: a saved model
	// records it, a loaded model and a resumed checkpoint must match it.
	var prov model.Provenance
	if *saveModel != "" || *loadModel != "" || *checkpoint != "" {
		prov, err = model.Fingerprint(lw.Reg, lw.Span, sys.Config())
		if err != nil {
			return err
		}
	}
	var o *windows.Outcome
	var loaded *model.File
	if *loadModel != "" {
		if loaded, err = model.Load(*loadModel, nil); err != nil {
			return err
		}
		if err := loaded.Verify(prov); err != nil {
			return err
		}
		o = loaded.Outcome()
		if err := sys.UseOutcome(o); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "model loaded from %s (%d patterns, no mining)\n", *loadModel, len(o.Discovered))
	} else {
		if *checkpoint != "" {
			sys.WithCheckpoint(model.NewCheckpointer(*checkpoint, prov, nil))
		}
		if o, err = sys.Mine(lw.Seeds, lw.SeedType, lw.Span); err != nil {
			return err
		}
	}
	if *saveModel != "" {
		// A loaded file round-trips verbatim (load → save is byte-identical,
		// the invariant CI's model job compares); a fresh mine snapshots.
		out := loaded
		if out == nil {
			out = model.Snapshot(o, lw.Reg, prov)
		}
		if err := model.Save(*saveModel, out, nil); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "model saved to %s\n", *saveModel)
	}
	fmt.Printf("mined %d patterns in %v (%d refinement steps, final width %dd, tau %.2f)\n\n",
		len(o.Discovered), o.Elapsed.Round(1e6), o.RefinementSteps, o.Width/action.Day, o.Tau)
	for _, d := range o.Discovered {
		fmt.Println(" ", d)
	}
	rel := 0
	for _, wr := range o.Windows {
		for _, rps := range wr.Relative {
			for _, rp := range rps {
				rel++
				fmt.Println("  relative:", rp)
			}
		}
	}
	if rel == 0 {
		fmt.Println("  (no relative patterns at the final setting)")
	}
	// Value-specific instantiations (the §7 extension): variables
	// dominated by one entity across the final windows.
	shown := map[string]bool{}
	for _, wr := range o.Windows {
		for _, cp := range mining.SpecializeConstants(wr.Result, lw.Reg, 0.8) {
			key := cp.Base.Canonical() + lw.Reg.Name(cp.Entity)
			if shown[key] {
				continue
			}
			shown[key] = true
			fmt.Println("  value-specific:", cp.Format(lw.Reg))
		}
	}
	return nil
}

func cmdDetect(args []string) error {
	fs := flag.NewFlagSet("detect", flag.ExitOnError)
	var wf cli.Flags
	wf.Register(fs)
	limit := fs.Int("limit", 10, "max partial edits to print per pattern")
	modelPath := fs.String("model", "", "reuse a saved model (provenance-checked) instead of mining")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sys, lw, err := makeSystem(&wf)
	if err != nil {
		return err
	}
	if *modelPath != "" {
		if err := useSavedModel(sys, lw, *modelPath); err != nil {
			return err
		}
	} else if _, err := sys.Mine(lw.Seeds, lw.SeedType, lw.Span); err != nil {
		return err
	}
	// DetectErrors aggregates per-task failures and still returns the
	// successful reports; print what completed before surfacing the errors.
	reports, derr := sys.DetectErrors(wf.Workers)
	total := 0
	for _, rep := range reports {
		if rep == nil || len(rep.Partials) == 0 {
			continue
		}
		total += len(rep.Partials)
		fmt.Printf("pattern %s\n  window %v: %d complete, %d partial\n",
			rep.Pattern, rep.Window, rep.FullCount, len(rep.Partials))
		for i, pe := range rep.Partials {
			if i >= *limit {
				fmt.Printf("  ... (%d more)\n", len(rep.Partials)-*limit)
				break
			}
			fmt.Printf("  partial on %s, suggestions:\n", lw.Reg.Name(pe.Subject()))
			for _, s := range pe.Suggestions {
				fmt.Printf("    %s\n", s.Format(lw.Reg))
			}
		}
	}
	fmt.Printf("\n%d potential errors signaled in total\n", total)
	return derr
}

// useSavedModel installs a saved model into the system after verifying
// its provenance against the loaded world.
func useSavedModel(sys *core.System, lw *cli.World, path string) error {
	f, err := model.Load(path, nil)
	if err != nil {
		return err
	}
	prov, err := model.Fingerprint(lw.Reg, lw.Span, sys.Config())
	if err != nil {
		return err
	}
	if err := f.Verify(prov); err != nil {
		return err
	}
	return sys.UseOutcome(f.Outcome())
}

func cmdSuggest(args []string) error {
	fs := flag.NewFlagSet("suggest", flag.ExitOnError)
	var wf cli.Flags
	wf.Register(fs)
	subject := fs.String("subject", "", "entity performing the edit")
	opFlag := fs.String("op", "+", "edit operation: + or -")
	label := fs.String("label", "", "relation label being edited")
	object := fs.String("object", "", "link target entity")
	at := fs.Int64("at", 0, "edit timestamp (seconds into the revision span)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *subject == "" || *label == "" || *object == "" {
		return fmt.Errorf("suggest requires -subject, -label and -object")
	}
	op, err := action.ParseOp(*opFlag)
	if err != nil {
		return fmt.Errorf("-op: %w", err)
	}
	sys, lw, err := makeSystem(&wf)
	if err != nil {
		return err
	}
	if _, err := sys.Mine(lw.Seeds, lw.SeedType, lw.Span); err != nil {
		return err
	}
	as, err := sys.Assistant()
	if err != nil {
		return err
	}
	src, ok := lw.Reg.Lookup(*subject)
	if !ok {
		return fmt.Errorf("unknown subject %q", *subject)
	}
	dst, ok := lw.Reg.Lookup(*object)
	if !ok {
		return fmt.Errorf("unknown object %q", *object)
	}
	if lo, hi := as.TimeRange(); action.Time(*at) < lo || action.Time(*at) > hi {
		return fmt.Errorf("-at %d outside [%d, %d]: too close to an int64 limit for the model's window widths", *at, lo, hi)
	}
	edit := action.Action{
		Op:   op,
		Edge: action.Edge{Src: src, Label: action.Label(*label), Dst: dst},
		T:    action.Time(*at),
	}
	advices, err := as.Suggest(edit, edit.T)
	if err != nil {
		return err
	}
	if len(advices) == 0 {
		fmt.Println("no known pattern matches this edit")
		return nil
	}
	for _, adv := range advices {
		fmt.Print(adv.Format(lw.Reg))
	}
	return nil
}
