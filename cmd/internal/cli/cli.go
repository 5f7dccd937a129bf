// Package cli is the one reader of a 'wiclean gen' data directory, shared
// by the wiclean and wiclean-server commands. Flags holds the flags that
// select a world: a data directory or the synthetic generator, the
// -source* stack its actions are fetched through, and the window-walk
// configuration built from -abstraction and -workers. Load resolves them
// into the mining input; WriteDir writes the directory Load reads.
package cli

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"wiclean/internal/action"
	"wiclean/internal/dump"
	"wiclean/internal/mining"
	"wiclean/internal/obs"
	"wiclean/internal/source"
	"wiclean/internal/synth"
	"wiclean/internal/taxonomy"
	"wiclean/internal/windows"
)

// The files of a data directory.
const (
	universeFile  = "universe.jsonl"  // taxonomy and entities (dump.WriteUniverse)
	actionsFile   = "actions.jsonl"   // the action log (dump.WriteActions)
	revisionsFile = "revisions.jsonl" // raw wikitext revisions (dump.WriteRevisions)
	seedsFile     = "seeds.txt"       // one seed entity name per line
)

// Flags are the world-selection flags both commands take.
type Flags struct {
	Data        string
	Domain      string
	Seeds       int
	Seed        uint64
	Workers     int
	Abstraction int
	Source      source.Options
}

// Register binds the flags onto fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Data, "data", "", "directory written by 'wiclean gen' (overrides -domain)")
	fs.StringVar(&f.Domain, "domain", "soccer", "synthetic domain: soccer, cinematography, us-politicians")
	fs.IntVar(&f.Seeds, "seeds", 300, "seed entity count for synthetic generation")
	fs.Uint64Var(&f.Seed, "seed", 1, "generator random seed")
	fs.IntVar(&f.Workers, "workers", 0, "parallel workers: join workers inside each window and detection workers (0 = all cores)")
	fs.IntVar(&f.Abstraction, "abstraction", 1, "type-hierarchy levels above base types to mine at")
	f.Source = source.DefaultOptions()
	f.Source.RegisterFlags(fs)
}

// Config returns the window-walk configuration: the paper's defaults with
// PM mining at -abstraction levels and -workers join workers.
func (f *Flags) Config() windows.Config {
	cfg := windows.Defaults()
	cfg.Mining = mining.PM(cfg.InitialTau)
	cfg.Mining.MaxAbstraction = f.Abstraction
	cfg.Mining.JoinWorkers = f.Workers
	return cfg
}

// World is the mining input: the store the pipeline fetches through (a
// source stack), the registry, the seed set and the revision span. Mem is
// the materialized history, present only with -source memory.
type World struct {
	Store    *source.Store
	Mem      *dump.History
	Reg      *taxonomy.Registry
	Seeds    []taxonomy.EntityID
	SeedType taxonomy.Type
	Span     action.Window

	// Skipped counts the action records -source memory left out because
	// they name an entity outside the universe.
	Skipped int
}

// Load resolves the flags into a world. The registry and seeds come from
// -data or the generator; the actions from the selected source, whose
// metrics go to metrics (nil = none). Every source kind reads the same
// span from one directory: memory ingests actions.jsonl, dump scans it
// with dump.ScanSpan, and both skip the records IngestRecords skips; http
// asks the remote /history endpoint. A span whose End is not after its
// Start is an error.
func (f *Flags) Load(metrics *obs.Registry) (*World, error) {
	w := &World{}
	opts := f.Source
	opts.Obs = metrics
	if opts.Kind == "" {
		opts.Kind = source.KindMemory
	}
	if f.Data != "" {
		reg, seeds, err := readUniverse(f.Data)
		if err != nil {
			return nil, err
		}
		w.Reg, w.Seeds, w.SeedType = reg, seeds, reg.TypeOf(seeds[0])
		actions := filepath.Join(f.Data, actionsFile)
		if opts.Path == "" {
			opts.Path = actions
		}
		if opts.Kind == source.KindMemory {
			af, err := os.Open(actions)
			if err != nil {
				return nil, err
			}
			recs, err := dump.ReadActions(af)
			af.Close()
			if err != nil {
				return nil, err
			}
			w.Mem = dump.NewHistory(reg)
			w.Skipped = w.Mem.IngestRecords(recs)
			w.Span = w.Mem.Span()
		}
	} else {
		if opts.Kind == source.KindDump {
			return nil, fmt.Errorf("-source dump needs -data")
		}
		d, err := synth.DomainByName(f.Domain)
		if err != nil {
			return nil, err
		}
		p := synth.DefaultParams(d, f.Seeds)
		p.Seed = f.Seed
		sw, err := synth.Generate(p)
		if err != nil {
			return nil, err
		}
		w.Reg, w.Seeds, w.SeedType = sw.Reg, sw.Seeds, d.SeedType
		if opts.Kind == source.KindMemory {
			w.Mem, w.Span = sw.History, sw.Span
		}
	}

	// Lazy sources never materialize the log, so the revision span, which
	// Algorithm 2 needs before it can split the timeline, comes from the
	// source itself.
	switch opts.Kind {
	case source.KindDump:
		af, err := os.Open(opts.Path)
		if err != nil {
			return nil, err
		}
		span, _, err := dump.ScanSpan(af, w.Reg)
		af.Close()
		if err != nil {
			return nil, err
		}
		w.Span = span
	case source.KindHTTP:
		if opts.URL == "" {
			return nil, fmt.Errorf("-source http needs -source-url")
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		span, err := source.NewHTTP(opts.URL, w.Reg, nil).Span(ctx)
		if err != nil {
			return nil, fmt.Errorf("fetching remote span: %w", err)
		}
		w.Span = span
	}
	// A log with no actions over the universe has an empty span, and an
	// action at the int64 time limit wraps End below Start; either way
	// the walk would mine nothing and report no error.
	if w.Span.End <= w.Span.Start {
		return nil, fmt.Errorf("revision span %v is empty: the action log holds no actions over the universe, or one at the int64 time limit", w.Span)
	}

	st, err := opts.Store(context.Background(), w.Mem, w.Reg)
	if err != nil {
		return nil, err
	}
	w.Store = st
	return w, nil
}

// readUniverse reads the universe and the seed set of a data directory.
func readUniverse(dir string) (*taxonomy.Registry, []taxonomy.EntityID, error) {
	uf, err := os.Open(filepath.Join(dir, universeFile))
	if err != nil {
		return nil, nil, err
	}
	reg, err := dump.ReadUniverse(uf)
	uf.Close()
	if err != nil {
		return nil, nil, err
	}
	sf, err := os.Open(filepath.Join(dir, seedsFile))
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
			return nil, nil, fmt.Errorf("%s references unknown entity %q", seedsFile, name)
		}
		seeds = append(seeds, id)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if len(seeds) == 0 {
		return nil, nil, fmt.Errorf("%s holds no seed entities", seedsFile)
	}
	return reg, seeds, nil
}

// WriteDir writes w as a data directory Load reads: the universe, the
// action log, the seed set and, when revisions is set, the raw wikitext
// revisions.
func WriteDir(dir string, w *synth.World, revisions bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	err := writeFile(dir, universeFile, func(f *os.File) error { return dump.WriteUniverse(f, w.Reg) })
	if err == nil {
		err = writeFile(dir, actionsFile, func(f *os.File) error { return dump.WriteActions(f, w.History.Records()) })
	}
	if err == nil && revisions {
		err = writeFile(dir, revisionsFile, func(f *os.File) error { return dump.WriteRevisions(f, w.RevisionDump()) })
	}
	if err == nil {
		err = writeFile(dir, seedsFile, func(f *os.File) error {
			bw := bufio.NewWriter(f)
			for _, id := range w.Seeds {
				fmt.Fprintln(bw, w.Reg.Name(id))
			}
			return bw.Flush()
		})
	}
	return err
}

func writeFile(dir, name string, write func(*os.File) error) error {
	path := filepath.Join(dir, name)
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
