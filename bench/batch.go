package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"wiclean/internal/action"
	"wiclean/internal/core"
	"wiclean/internal/dump"
	"wiclean/internal/mining"
	"wiclean/internal/model"
	"wiclean/internal/obs"
	"wiclean/internal/source"
	"wiclean/internal/taxonomy"
	"wiclean/internal/windows"
)

// minIterations is the least number of iterations a batch phase runs, so
// outputs are always compared across iterations.
const minIterations = 2

// batch is the walk workload: its timed operation runs the whole
// mine→detect path from data files on disk to a result.
type batch struct {
	seeds, spanDays int

	// Set by setup.
	dir       string
	seedNames []string
	seedType  taxonomy.Type
	span      action.Window
	cfg       windows.Config
	want      *batchOutput // the first iteration's outputs, which every later one must match
}

func (b *batch) params() any {
	return map[string]any{"world_seeds": b.seeds, "span_days": b.spanDays, "world_seed": worldSeed}
}

func (b *batch) root() string { return "iteration" }

// setup generates the world and writes the universe and the raw wikitext
// revisions, entity by entity in an order drawn from seed.
func (b *batch) setup(seed uint64, dir string) error {
	w, err := genWorld(b.seeds, b.spanDays)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewPCG(seed, 0x66696c65)) // a stream of its own, apart from the arrival schedule
	revs := shuffleGroups(w.RevisionDump(), func(r dump.Revision) string { return r.Entity }, rng)
	if err := writeUniverse(dir, w.Reg); err != nil {
		return err
	}
	if err := writeFile(dir, revisionsFile, func(f *os.File) error { return dump.WriteRevisions(f, revs) }); err != nil {
		return err
	}
	b.dir = dir
	b.seedNames = b.seedNames[:0]
	for _, id := range w.Seeds {
		b.seedNames = append(b.seedNames, w.Reg.Name(id))
	}
	b.seedType = w.Domain.SeedType
	b.span = w.Span
	b.cfg = productionConfig()
	b.want = nil
	return nil
}

// batchOutput is what one iteration produced: the outputs checked across
// iterations and the work counts the per-layer metrics report.
type batchOutput struct {
	ready time.Duration // files → store ready to mine

	model    []byte // the saved model file
	partials int    // partial edits detected

	stats                            mining.Stats
	steps, jobs, discovered          int
	revisions, actions, linksSkipped int
}

// load is the first stage of an iteration: it reads the data files, ingests
// the revisions and builds the source stack over them, recording the work
// counts into out.
func (b *batch) load(root *active, tr *tracer, metrics *obs.Registry, out *batchOutput) (*taxonomy.Registry, *source.Store, error) {
	sp := tr.stageOf(root.ref(), "dump.read")
	reg, err := readUniverse(b.dir)
	var revs []dump.Revision
	if err == nil {
		revs, err = readFile(b.dir, revisionsFile, func(f *os.File) ([]dump.Revision, error) { return dump.ReadRevisions(f) })
	}
	out.ready += sp.end()
	if err != nil {
		return nil, nil, err
	}
	sp = tr.stageOf(root.ref(), "dump.ingest")
	h := dump.NewHistory(reg)
	err = h.IngestRevisions(revs)
	out.ready += sp.end()
	if err != nil {
		return nil, nil, err
	}
	out.revisions, out.actions, out.linksSkipped = h.RevisionsParsed, h.ActionCount(), h.LinksSkipped
	sp = tr.stageOf(root.ref(), "source.build")
	store, err := buildStore(h, reg, metrics, tr)
	out.ready += sp.end()
	return reg, store, err
}

// iterate runs one timed iteration under root.
func (b *batch) iterate(root *active, tr *tracer, metrics *obs.Registry) (*batchOutput, error) {
	out := &batchOutput{}
	reg, store, err := b.load(root, tr, metrics, out)
	if err != nil {
		return nil, err
	}
	seeds, err := lookupAll(reg, b.seedNames)
	if err != nil {
		return nil, err
	}

	cfg := b.cfg
	cfg.Obs = metrics
	sp := tr.stageOf(root.ref(), "windows.run")
	o, err := windows.Run(store, seeds, b.seedType, b.span, cfg)
	sp.end()
	if err != nil {
		return nil, err
	}
	out.stats = o.Stats
	out.steps, out.jobs, out.discovered = o.RefinementSteps+1, len(o.WindowDurations), len(o.Discovered)

	sp = tr.stageOf(root.ref(), "model.fingerprint")
	prov, err := model.Fingerprint(reg, b.span, cfg)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = tr.stageOf(root.ref(), "model.save")
	err = model.Save(filepath.Join(b.dir, modelFile), model.Snapshot(o, reg, prov), metrics)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = tr.stageOf(root.ref(), "detect.run")
	sys := core.New(store, cfg).WithObs(metrics)
	sys.UseOutcome(o)
	reports, err := sys.DetectErrors(0)
	sp.end()
	if err != nil {
		return nil, err
	}
	for _, r := range reports {
		if r != nil {
			out.partials += len(r.Partials)
		}
	}
	return out, nil
}

// check compares an iteration's outputs with the first iteration's. The
// saved model must also survive load → save byte for byte.
func (b *batch) check(out *batchOutput) error {
	path := filepath.Join(b.dir, modelFile)
	saved, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	f, err := model.Load(path, nil)
	if err != nil {
		return err
	}
	again := filepath.Join(b.dir, "model-again.json")
	if err := model.Save(again, f, nil); err != nil {
		return err
	}
	resaved, err := os.ReadFile(again)
	if err != nil {
		return err
	}
	if !bytes.Equal(saved, resaved) {
		return fmt.Errorf("model save → load → save is not byte-identical")
	}
	out.model = saved
	if b.want == nil {
		b.want = out
		return nil
	}
	w := b.want
	switch {
	case !bytes.Equal(out.model, w.model):
		return fmt.Errorf("model bytes differ from the first iteration's")
	case out.partials != w.partials:
		return fmt.Errorf("%d partial edits, first iteration found %d", out.partials, w.partials)
	case out.stats.Join.Comparisons != w.stats.Join.Comparisons,
		out.stats.Candidates != w.stats.Candidates,
		out.stats.FrequentFound != w.stats.FrequentFound:
		return fmt.Errorf("mining work (%d comparisons, %d candidates, %d frequent) differs from the first iteration's (%d, %d, %d)",
			out.stats.Join.Comparisons, out.stats.Candidates, out.stats.FrequentFound,
			w.stats.Join.Comparisons, w.stats.Candidates, w.stats.FrequentFound)
	}
	return nil
}

// loadShare is the share of each untraced iteration's wall time for which
// the first stage alone repeats afterwards. A walk iteration holds one
// 10-ms load among seconds of mining, and a run holds about ten
// iterations: ten samples of a stage short enough to fall wholly in one of
// the host's speed states (see mean) leave its mean at the mercy of a few
// draws.
const loadShare = 0.2

// measure runs iterations for at least d, each from a collected heap, and
// checks every one.
func (b *batch) measure(ctx context.Context, d time.Duration, meter *speedometer, tr *tracer) (*phase, error) {
	var metrics *obs.Registry
	if tr != nil {
		metrics = obs.NewRegistry()
	}
	ph := &phase{}
	var walls, readies, cpus timings
	var growths []float64
	var outs []*batchOutput
	before, mem0 := metrics.Snapshot(), memStats()
	start := time.Now()
	for i := 0; i < minIterations || time.Since(start) < d; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rss := freshMemory()
		k := meter.read()
		c0 := cpuTime()
		root := tr.root(b.root())
		out, err := b.iterate(root, tr, metrics)
		wall := root.end()
		cpu := cpuTime() - c0
		kernel := meter.read().since(k)
		growth := rssGrowthMiB(rss)
		if err == nil {
			err = b.check(out)
		}
		if !ph.record(err) {
			continue
		}
		walls.add(wall, kernel)
		readies.add(out.ready, kernel)
		cpus.add(cpu, kernel)
		growths = append(growths, growth)
		outs = append(outs, out)
		if tr != nil {
			continue
		}
		k = meter.read()
		var loads []time.Duration
		for spent := time.Duration(0); spent < time.Duration(loadShare*float64(wall)); {
			runtime.GC()
			again := &batchOutput{}
			_, _, err := b.load(tr.root(b.root()), tr, metrics, again)
			if !ph.record(err) {
				break
			}
			loads = append(loads, again.ready)
			spent += again.ready
		}
		kernel = meter.read().since(k)
		for _, l := range loads {
			readies.add(l, kernel)
		}
	}
	if len(outs) == 0 {
		return nil, fmt.Errorf("no iteration succeeded: %w", ph.firstErr)
	}
	ph.ops, ph.readies = len(outs), len(readies.raw)
	ph.endToEnd = map[string]float64{
		"ready_ms":      ms(mean(readies.scaled)),
		"op_ms":         ms(mean(walls.scaled)),
		"cpu_ms_per_op": ms(mean(cpus.scaled)),
		"rss_growth_mb": median(growths),
	}
	ph.raw = map[string]float64{
		"ready_ms":      ms(mean(readies.raw)),
		"op_ms":         ms(mean(walls.raw)),
		"cpu_ms_per_op": ms(mean(cpus.raw)),
	}
	ph.medians = map[string]float64{
		"ready_ms":      ms(median(readies.scaled)),
		"op_ms":         ms(median(walls.scaled)),
		"cpu_ms_per_op": ms(median(cpus.scaled)),
	}
	ph.overheadBase = ph.endToEnd["op_ms"]
	if tr != nil {
		c := newCounters()
		c.add(before, metrics.Snapshot())
		var mem memDelta
		mem.add(mem0, memStats())
		ph.layers = b.layers(tr.records(), c, outs, mem)
		ph.absent = c.absentNames()
	}
	return ph, nil
}

// layers derives the per-layer metrics of a traced phase. Times and counts
// are per iteration.
func (b *batch) layers(spans []spanRecord, c *counters, outs []*batchOutput, mem memDelta) map[string]float64 {
	n := float64(len(outs))
	last := outs[len(outs)-1]
	var busy time.Duration
	var joins, comparisons, rowsOut float64
	for _, o := range outs {
		busy += o.stats.Preprocessing + o.stats.Mining
		joins += float64(o.stats.Join.Joins)
		comparisons += float64(o.stats.Join.Comparisons)
		rowsOut += float64(o.stats.Join.RowsOut)
	}
	run := spanSeconds(spans, "windows.run") / n
	l := map[string]float64{
		"dump.read_s":        spanSeconds(spans, "dump.read") / n,
		"dump.ingest_s":      spanSeconds(spans, "dump.ingest") / n,
		"dump.alloc_mb":      (spanAllocMiB(spans, "dump.read") + spanAllocMiB(spans, "dump.ingest")) / n,
		"dump.revisions":     float64(last.revisions),
		"dump.actions":       float64(last.actions),
		"dump.links_skipped": float64(last.linksSkipped),

		"mining.busy_s":      busy.Seconds() / n,
		"mining.candidates":  c.get(cMiningCandidates) / n,
		"mining.frequent":    c.get(cMiningAdmitted) / n,
		"mining.admit_ratio": ratio(c.get(cMiningAdmitted), c.get(cMiningCandidates)),
		"mining.type_pulls":  c.get(cMiningTypePulls) / n,
		"mining.alloc_mb":    spanAllocMiB(spans, "windows.run") / n,

		"relational.joins":               joins / n,
		"relational.comparisons":         comparisons / n,
		"relational.rows_out":            rowsOut / n,
		"relational.planned_hash":        c.get(cPlannedHash) / n,
		"relational.planned_nested":      c.get(cPlannedNested) / n,
		"relational.interned_probe_hits": c.get(cInternedProbeHits) / n,

		"windows.run_s":       run,
		"windows.steps":       float64(last.steps),
		"windows.jobs":        float64(last.jobs),
		"windows.discovered":  float64(last.discovered),
		"windows.parallelism": ratio(busy.Seconds()/n, run),

		"model.fingerprint_s": spanSeconds(spans, "model.fingerprint") / n,
		"model.save_s":        spanSeconds(spans, "model.save") / n,
		"model.bytes":         c.get(cModelSaveBytes) / n,

		"detect.run_s":        spanSeconds(spans, "detect.run") / n,
		"detect.tasks":        c.get(cDetectRuns) / n,
		"detect.partials":     c.get(cDetectPartials) / n,
		"detect.rows_scanned": c.get(cDetectRowsScanned) / n,
	}
	sourceLayers(l, named(spans, "source.fetch"), c, n)
	runtimeLayers(l, mem, n)
	return l
}
