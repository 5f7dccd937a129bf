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
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"wiclean/internal/action"
	"wiclean/internal/core"
	"wiclean/internal/dump"
	"wiclean/internal/mining"
	"wiclean/internal/model"
	"wiclean/internal/obs/trace"
	"wiclean/internal/source"
	"wiclean/internal/synth"
	"wiclean/internal/taxonomy"
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

// worldFlags are the shared input-selection flags, including the -source*
// family selecting where revision histories are fetched from.
type worldFlags struct {
	data    string
	domain  string
	seeds   int
	seed    uint64
	workers int
	levels  int
	src     source.Options
}

func (wf *worldFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&wf.data, "data", "", "directory written by 'wiclean gen' (overrides -domain)")
	fs.StringVar(&wf.domain, "domain", "soccer", "synthetic domain: soccer, cinematography, us-politicians")
	fs.IntVar(&wf.seeds, "seeds", 300, "seed entity count for synthetic generation")
	fs.Uint64Var(&wf.seed, "seed", 1, "generator random seed")
	fs.IntVar(&wf.workers, "workers", 0, "parallel workers: join workers inside each window and detection workers (0 = all cores)")
	fs.IntVar(&wf.levels, "abstraction", 1, "type-hierarchy levels above base types to mine at")
	wf.src = source.DefaultOptions()
	wf.src.RegisterFlags(fs)
}

// loadedWorld is the mining input: the revision store the pipeline fetches
// through (a source stack — see internal/source), the entity registry, and
// the seed set. mem is the fully materialized history, present only with
// -source memory; lazy sources never hold one.
type loadedWorld struct {
	store    mining.Store
	mem      *dump.History
	reg      *taxonomy.Registry
	seeds    []taxonomy.EntityID
	seedType taxonomy.Type
	span     action.Window
}

// load resolves the flags into a world: the registry and seed set come
// from -data or the synthetic generator, the actions from the selected
// source (-source memory materializes them; dump streams the JSONL log
// lazily; http fetches from a remote /history endpoint, for example
// another wiclean-server).
func (wf *worldFlags) load() (*loadedWorld, error) {
	lw := &loadedWorld{}
	kind := wf.src.Kind
	if kind == "" {
		kind = source.KindMemory
	}

	if wf.data != "" {
		reg, seeds, err := loadUniverse(wf.data)
		if err != nil {
			return nil, err
		}
		lw.reg, lw.seeds = reg, seeds
		lw.seedType = reg.TypeOf(seeds[0])
		switch kind {
		case source.KindMemory:
			mem, err := loadActions(wf.data, reg)
			if err != nil {
				return nil, err
			}
			lw.mem = mem
			lw.span = mem.Span()
		case source.KindDump:
			if wf.src.Path == "" {
				wf.src.Path = filepath.Join(wf.data, "actions.jsonl")
			}
		}
	} else {
		if kind == source.KindDump {
			return nil, fmt.Errorf("-source dump needs -data (or -source-path plus a -data universe)")
		}
		d, err := synth.DomainByName(wf.domain)
		if err != nil {
			return nil, err
		}
		p := synth.DefaultParams(d, wf.seeds)
		p.Seed = wf.seed
		w, err := synth.Generate(p)
		if err != nil {
			return nil, err
		}
		lw.reg, lw.seeds, lw.seedType = w.Reg, w.Seeds, d.SeedType
		if kind == source.KindMemory {
			lw.mem = w.History
			lw.span = w.Span
		}
	}

	// Lazy sources never materialize the log, so the revision span — which
	// Algorithm 2 needs before it can split the timeline — is learned from
	// the source itself.
	switch kind {
	case source.KindDump:
		f, err := os.Open(wf.src.Path)
		if err != nil {
			return nil, err
		}
		span, n, err := source.ScanSpan(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return nil, fmt.Errorf("%s holds no action records", wf.src.Path)
		}
		lw.span = span
	case source.KindHTTP:
		if wf.src.URL == "" {
			return nil, fmt.Errorf("-source http needs -source-url")
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		span, err := source.NewHTTP(wf.src.URL, lw.reg, nil).Span(ctx)
		if err != nil {
			return nil, fmt.Errorf("fetching remote span: %w", err)
		}
		lw.span = span
	}

	st, err := wf.src.Store(context.Background(), lw.mem, lw.reg)
	if err != nil {
		return nil, err
	}
	lw.store = st
	return lw, nil
}

// loadUniverse reads universe.jsonl and seeds.txt from a 'wiclean gen'
// directory.
func loadUniverse(dir string) (*taxonomy.Registry, []taxonomy.EntityID, error) {
	uf, err := os.Open(filepath.Join(dir, "universe.jsonl"))
	if err != nil {
		return nil, nil, err
	}
	defer uf.Close()
	reg, err := dump.ReadUniverse(uf)
	if err != nil {
		return nil, nil, err
	}
	sf, err := os.Open(filepath.Join(dir, "seeds.txt"))
	if err != nil {
		return nil, nil, err
	}
	defer sf.Close()
	var seeds []taxonomy.EntityID
	sc := bufio.NewScanner(sf)
	for sc.Scan() {
		name := strings.TrimSpace(sc.Text())
		if name == "" {
			continue
		}
		id, ok := reg.Lookup(name)
		if !ok {
			return nil, nil, fmt.Errorf("seeds.txt references unknown entity %q", name)
		}
		seeds = append(seeds, id)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if len(seeds) == 0 {
		return nil, nil, fmt.Errorf("seeds.txt holds no seed entities")
	}
	return reg, seeds, nil
}

// loadActions materializes actions.jsonl into an in-memory history — the
// -source memory path.
func loadActions(dir string, reg *taxonomy.Registry) (*dump.History, error) {
	af, err := os.Open(filepath.Join(dir, "actions.jsonl"))
	if err != nil {
		return nil, err
	}
	defer af.Close()
	recs, err := dump.ReadActions(af)
	if err != nil {
		return nil, err
	}
	h := dump.NewHistory(reg)
	if skipped := h.IngestRecords(recs); skipped > 0 {
		fmt.Fprintf(os.Stderr, "wiclean: skipped %d action records referencing unknown entities\n", skipped)
	}
	return h, nil
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	var wf worldFlags
	wf.register(fs)
	out := fs.String("out", "wiclean-data", "output directory")
	withRevisions := fs.Bool("revisions", true, "also write raw wikitext revisions (revisions.jsonl)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	d, err := synth.DomainByName(wf.domain)
	if err != nil {
		return err
	}
	p := synth.DefaultParams(d, wf.seeds)
	p.Seed = wf.seed
	w, err := synth.Generate(p)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	if err := writeFile(filepath.Join(*out, "universe.jsonl"), func(f *os.File) error {
		return dump.WriteUniverse(f, w.Reg)
	}); err != nil {
		return err
	}
	if err := writeFile(filepath.Join(*out, "actions.jsonl"), func(f *os.File) error {
		return dump.WriteActions(f, w.History.Records())
	}); err != nil {
		return err
	}
	if *withRevisions {
		if err := writeFile(filepath.Join(*out, "revisions.jsonl"), func(f *os.File) error {
			return dump.WriteRevisions(f, w.RevisionDump())
		}); err != nil {
			return err
		}
	}
	if err := writeFile(filepath.Join(*out, "seeds.txt"), func(f *os.File) error {
		bw := bufio.NewWriter(f)
		for _, id := range w.Seeds {
			fmt.Fprintln(bw, w.Reg.Name(id))
		}
		return bw.Flush()
	}); err != nil {
		return err
	}
	st := w.TruthStats()
	fmt.Printf("generated %s world: %d entities, %d actions, %d scenario instances\n",
		wf.domain, w.Reg.Len(), w.History.ActionCount(), st.Instances)
	fmt.Printf("injected %d partial edits (%d real errors, %d corrected next year) into %s\n",
		st.Errors, st.Real, st.Corrected, *out)
	return nil
}

func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

func makeSystem(wf *worldFlags) (*core.System, *loadedWorld, error) {
	lw, err := wf.load()
	if err != nil {
		return nil, nil, err
	}
	cfg := windows.Defaults()
	cfg.Mining = mining.PM(cfg.InitialTau)
	cfg.Mining.MaxAbstraction = wf.levels
	cfg.Mining.JoinWorkers = wf.workers
	return core.New(lw.store, cfg), lw, nil
}

func cmdMine(args []string) error {
	fs := flag.NewFlagSet("mine", flag.ExitOnError)
	var wf worldFlags
	wf.register(fs)
	save := fs.String("save", "", "write the mined model in the legacy windows format to this file")
	saveModel := fs.String("save-model", "", "write the mined model (versioned wiclean-model format) to this file")
	loadModel := fs.String("load-model", "", "serve a previously saved model instead of mining (provenance-checked)")
	checkpoint := fs.String("checkpoint", "", "persist refinement state to this file; an interrupted run resumes from it")
	checkpointEvery := fs.Int("checkpoint-every", 0, "checkpoint every Nth refinement iteration (0 = every)")
	traceOut := fs.String("trace-out", "", "append per-window trace exports to this JSONL file (analyze with wiclean-trace)")
	traceSample := fs.Float64("trace-sample", 1.0, "head-sampling keep fraction in [0,1]; errored and slow traces always export")
	traceSlow := fs.Duration("trace-slow", time.Second, "always export traces at least this slow (0 disables the slow rule)")
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
			Service:       "wiclean-mine",
			SampleRate:    *traceSample,
			SlowThreshold: *traceSlow,
			Output:        f,
		}))
	}
	// The provenance fingerprint guards every model artifact: a saved model
	// records it, a loaded model and a resumed checkpoint must match it.
	var prov model.Provenance
	if *saveModel != "" || *loadModel != "" || *checkpoint != "" {
		prov, err = model.Fingerprint(lw.reg, lw.span, sys.Config())
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
		fmt.Fprintf(os.Stderr, "model loaded from %s (%d patterns, no mining)\n", *loadModel, len(o.Discovered))
	} else {
		if *checkpoint != "" {
			sys.WithCheckpoint(model.NewCheckpointer(*checkpoint, prov, nil), *checkpointEvery)
		}
		if o, err = sys.Mine(lw.seeds, lw.seedType, lw.span); err != nil {
			return err
		}
	}
	if *saveModel != "" {
		// A loaded file round-trips verbatim (load → save is byte-identical,
		// the invariant CI's model job compares); a fresh mine snapshots.
		out := loaded
		if out == nil {
			out = model.Snapshot(o, lw.reg, prov)
		}
		if err := model.Save(*saveModel, out, nil); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "model saved to %s\n", *saveModel)
	}
	if *save != "" {
		if err := writeFile(*save, func(f *os.File) error {
			return windows.WriteModel(f, o.Model())
		}); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "model saved to %s\n", *save)
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
		for _, cp := range mining.SpecializeConstants(wr.Result, lw.reg, 0.8) {
			key := cp.Base.Canonical() + lw.reg.Name(cp.Entity)
			if shown[key] {
				continue
			}
			shown[key] = true
			fmt.Println("  value-specific:", cp.Format(lw.reg))
		}
	}
	return nil
}

func cmdDetect(args []string) error {
	fs := flag.NewFlagSet("detect", flag.ExitOnError)
	var wf worldFlags
	wf.register(fs)
	limit := fs.Int("limit", 10, "max partial edits to print per pattern")
	modelPath := fs.String("model", "", "reuse a saved model (wiclean-model or legacy format) instead of mining")
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
	} else if _, err := sys.Mine(lw.seeds, lw.seedType, lw.span); err != nil {
		return err
	}
	// DetectErrors aggregates per-task failures and still returns the
	// successful reports; print what completed before surfacing the errors.
	reports, derr := sys.DetectErrors(wf.workers)
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
			fmt.Printf("  partial on %s, suggestions:\n", lw.reg.Name(pe.Subject()))
			for _, s := range pe.Suggestions {
				fmt.Printf("    %s\n", s.Format(lw.reg))
			}
		}
	}
	fmt.Printf("\n%d potential errors signaled in total\n", total)
	return derr
}

// useSavedModel installs a saved model into the system: the versioned
// wiclean-model format (provenance-verified against the loaded world)
// with a fallback to the legacy windows format for files written by
// 'wiclean mine -save'.
func useSavedModel(sys *core.System, lw *loadedWorld, path string) error {
	f, err := model.Load(path, nil)
	if err == nil {
		prov, perr := model.Fingerprint(lw.reg, lw.span, sys.Config())
		if perr != nil {
			return perr
		}
		if verr := f.Verify(prov); verr != nil {
			return verr
		}
		sys.UseOutcome(f.Outcome())
		return nil
	}
	if !errors.Is(err, model.ErrNotModel) {
		return err
	}
	mf, oerr := os.Open(path)
	if oerr != nil {
		return oerr
	}
	m, rerr := windows.ReadModel(mf)
	mf.Close()
	if rerr != nil {
		return rerr
	}
	sys.UseModel(m)
	return nil
}

func cmdSuggest(args []string) error {
	fs := flag.NewFlagSet("suggest", flag.ExitOnError)
	var wf worldFlags
	wf.register(fs)
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
	sys, lw, err := makeSystem(&wf)
	if err != nil {
		return err
	}
	if _, err := sys.Mine(lw.seeds, lw.seedType, lw.span); err != nil {
		return err
	}
	as, err := sys.Assistant()
	if err != nil {
		return err
	}
	src, ok := lw.reg.Lookup(*subject)
	if !ok {
		return fmt.Errorf("unknown subject %q", *subject)
	}
	dst, ok := lw.reg.Lookup(*object)
	if !ok {
		return fmt.Errorf("unknown object %q", *object)
	}
	op := action.Add
	if *opFlag == "-" {
		op = action.Remove
	}
	if lo, hi := as.TimeRange(); action.Time(*at) < lo || action.Time(*at) > hi {
		return fmt.Errorf("-at %d outside [%d, %d]: too close to an int64 limit for the model's window widths", *at, lo, hi)
	}
	edit := action.Action{
		Op:   op,
		Edge: action.Edge{Src: src, Label: action.Label(*label), Dst: dst},
		T:    action.Time(*at),
	}
	advices := as.Suggest(edit, edit.T)
	if len(advices) == 0 {
		fmt.Println("no known pattern matches this edit")
		return nil
	}
	for _, adv := range advices {
		fmt.Print(adv.Format(lw.reg))
	}
	return nil
}
