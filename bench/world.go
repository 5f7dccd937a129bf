package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"

	"wiclean/internal/action"
	"wiclean/internal/dump"
	"wiclean/internal/mining"
	"wiclean/internal/obs"
	"wiclean/internal/source"
	"wiclean/internal/synth"
	"wiclean/internal/taxonomy"
	"wiclean/internal/windows"
)

// worldSeed fixes the synthetic world every run of a workload measures.
// A run's -seed reorders the data files and picks the requests and their
// arrival times instead: among Soccer worlds of one size, the refinement
// walk's cost varies threefold from world to world, far beyond any bound a
// run-to-run comparison can hold.
const worldSeed = 1

// Data files a setup writes, in the formats 'wiclean gen' writes.
const (
	universeFile  = "universe.jsonl"
	revisionsFile = "revisions.jsonl"
	actionsFile   = "actions.jsonl"
	modelFile     = "model.json"
)

// genWorld generates the Soccer world of the given seed-entity count over
// a span of the given days.
func genWorld(seeds, spanDays int) (*synth.World, error) {
	p := synth.DefaultParams(synth.Soccer(), seeds)
	p.Seed = worldSeed
	p.Span = action.Window{Start: 0, End: action.Time(spanDays) * action.Day}
	return synth.Generate(p)
}

// productionConfig is the window-walk configuration the wiclean and
// wiclean-server commands use by default.
func productionConfig() windows.Config {
	cfg := windows.Defaults()
	cfg.Mining = mining.PM(cfg.InitialTau)
	cfg.Mining.MaxAbstraction = 1
	return cfg
}

// buildStore assembles the default source stack over an in-memory
// history, as the commands do, and times its fetches when tr is set.
func buildStore(h *dump.History, reg *taxonomy.Registry, metrics *obs.Registry, tr *tracer) (*source.Store, error) {
	opts := source.DefaultOptions()
	opts.Obs = metrics
	src, err := opts.Build(h, reg)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		src = timedSource{HistorySource: src, tr: tr}
	}
	return source.NewStore(context.Background(), src), nil
}

// shuffleGroups permutes the groups of items sharing a key and keeps each
// group's own order, so the file order changes with the seed while every
// entity's history reads back exactly the same.
func shuffleGroups[T any](items []T, key func(T) string, rng *rand.Rand) []T {
	var keys []string
	groups := map[string][]T{}
	for _, it := range items {
		k := key(it)
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], it)
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	out := make([]T, 0, len(items))
	for _, k := range keys {
		out = append(out, groups[k]...)
	}
	return out
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

func readFile[T any](dir, name string, read func(*os.File) (T, error)) (T, error) {
	f, err := os.Open(filepath.Join(dir, name))
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close()
	return read(f)
}

func readUniverse(dir string) (*taxonomy.Registry, error) {
	return readFile(dir, universeFile, func(f *os.File) (*taxonomy.Registry, error) { return dump.ReadUniverse(f) })
}

func writeUniverse(dir string, reg *taxonomy.Registry) error {
	return writeFile(dir, universeFile, func(f *os.File) error { return dump.WriteUniverse(f, reg) })
}

// lookupAll resolves entity names against a registry read back from disk.
func lookupAll(reg *taxonomy.Registry, names []string) ([]taxonomy.EntityID, error) {
	ids := make([]taxonomy.EntityID, len(names))
	for i, n := range names {
		id, ok := reg.Lookup(n)
		if !ok {
			return nil, fmt.Errorf("unknown entity %q", n)
		}
		ids[i] = id
	}
	return ids, nil
}
