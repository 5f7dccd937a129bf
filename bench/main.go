// Command bench is WiClean's benchmark. One invocation runs one workload in
// its own process: it makes the workload's inputs from -seed, sets up
// several times (reporting the median), measures for -seconds, checks every
// output, and prints the metrics, each with its unit, as the last line of
// standard output:
//
//	{"correct":true,"attempted":12,"failed":0,"metrics":{"op_ms":{"value":2411.7,"unit":"ms"},...}}
//
// With -trace 0 the metrics are the end-to-end ones, every time among them
// scaled to a reference speed of the host measured alongside (speed.go).
// With -trace 1 the run measures half its time untraced and half with
// per-layer recording, and prints the per-layer metrics, including the
// recording's overhead. The line before the result describes the host, the
// workload's parameters, the sample counts and the unscaled values. See
// README.md for the workloads and every metric.
//
// Build and run it from the repository root with
//
//	bash bench/run.sh -workload walk -seed 1 -seconds 45 -trace 0
//
// or from this directory with go run:
//
//	go run . -workload serve-cold -seed 3 -trace 1 -spans spans.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"time"
)

// workload is one set of inputs and one timed operation.
type workload interface {
	// params describes the workload's fixed inputs for the run's facts.
	params() any
	// root names the span of one timed operation whose wall time the
	// layers must account for.
	root() string
	// setup makes the inputs from seed: the world, the data files in dir,
	// and whatever the timed operation needs ready beforehand.
	setup(seed uint64, dir string) error
	// measure runs and checks the timed operation for about d, recording
	// per-layer spans and counters when tr is not nil, and scales its end-to-end
	// times by the host speed meter reads while they are measured.
	measure(ctx context.Context, d time.Duration, meter *speedometer, tr *tracer) (*phase, error)
}

// newWorkload returns the named workload at its benchmark size. The
// request rate is a tenth to a sixth of the rate at which serve-cold stops
// meeting a 50-ms p99 on a 2-CPU host (see README.md), so that a host
// running at half speed still leaves the server most of a CPU idle.
func newWorkload(name string) workload {
	switch name {
	case "walk":
		return &batch{seeds: 40, spanDays: 365}
	case "serve-cold":
		return &serve{seeds: 100, spanDays: 365, rate: 200}
	}
	return nil
}

// phase is what one measured phase observed.
type phase struct {
	ops               int                // timed operations that passed their checks
	readies           int                // ready_ms samples
	rounds            int                // serve: load steps, each against a fresh warm start
	load              map[string]float64 // serve: latency percentiles over every request, and how far the generator ran behind
	attempted, failed int
	firstErr          error
	endToEnd          map[string]float64 // times at reference speed
	raw               map[string]float64 // the same times as measured
	medians           map[string]float64 // the medians of the samples whose means endToEnd reports
	overheadBase      float64            // the end-to-end value the tracing overhead is reported against
	layers            map[string]float64
	absent            []string // program counters the registry never created
}

// record counts one checked operation and reports whether it passed.
func (p *phase) record(err error) bool {
	p.attempted++
	if err == nil {
		return true
	}
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
	return false
}

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

var endToEndMetrics = []metricSpec{
	{"setup_s", "s"},
	{"ready_ms", "ms"},
	{"op_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"rss_growth_mb", "MiB"},
}

var perLayerMetrics = []metricSpec{
	{"dump.read_s", "s"}, {"dump.ingest_s", "s"}, {"dump.alloc_mb", "MiB"},
	{"dump.revisions", "count"}, {"dump.actions", "count"}, {"dump.links_skipped", "count"},
	{"source.fetch_calls", "count"}, {"source.fetch_busy_s", "s"}, {"source.fetch_p50_ms", "ms"},
	{"source.fetch_p99_ms", "ms"}, {"source.cache_hit_ratio", "ratio"}, {"source.backend_fetches", "count"},
	{"source.fetches_per_request", "count"}, {"source.pull_busy_s", "s"}, {"source.pull_share", "ratio"},
	{"mining.busy_s", "s"}, {"mining.candidates", "count"}, {"mining.frequent", "count"},
	{"mining.admit_ratio", "ratio"}, {"mining.type_pulls", "count"}, {"mining.alloc_mb", "MiB"},
	{"relational.joins", "count"}, {"relational.comparisons", "count"}, {"relational.rows_out", "count"},
	{"relational.planned_hash", "count"}, {"relational.planned_nested", "count"},
	{"relational.interned_probe_hits", "count"},
	{"windows.run_s", "s"}, {"windows.steps", "count"}, {"windows.jobs", "count"},
	{"windows.discovered", "count"}, {"windows.parallelism", "ratio"},
	{"model.fingerprint_s", "s"}, {"model.save_s", "s"}, {"model.load_s", "s"}, {"model.bytes", "bytes"},
	{"detect.run_s", "s"}, {"detect.tasks", "count"}, {"detect.partials", "count"}, {"detect.rows_scanned", "count"},
	{"plugin.build_s", "s"}, {"plugin.handler_p50_ms", "ms"}, {"plugin.handler_p99_ms", "ms"},
	{"assist.requests", "count"}, {"assist.candidates", "count"}, {"assist.advices", "count"},
	{"gen.sent", "count"}, {"gen.late_p99_ms", "ms"}, {"gen.client_overhead_ms", "ms"},
	{"runtime.alloc_mb", "MiB"}, {"runtime.gc_cycles", "count"}, {"runtime.gc_pause_ms", "ms"},
	{"bench.residual_ratio", "ratio"}, {"bench.trace_overhead_ratio", "ratio"},
}

// maxResidual is the share of a timed operation's wall time the layers may
// leave unattributed before the traced run fails.
const maxResidual = 0.10

type options struct {
	seed    uint64
	measure time.Duration
	trace   bool
	// Setups run in groups of back-to-back setups that last at least
	// setupGroup together; a run makes at least setupGroups groups, and
	// more until setupTime has passed. setup_s is the median of the
	// groups' mean setup times.
	setupGroups int
	setupGroup  time.Duration
	setupTime   time.Duration
	dir         string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// facts is the line before the result: what was measured, where, and on
// how many samples.
type facts struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Trace      bool               `json:"trace"`
	Params     any                `json:"params"`
	Host       hostFacts          `json:"host"`
	SetupS     []float64          `json:"setup_group_mean_s"`
	Samples    map[string]int     `json:"samples"`
	Medians    map[string]float64 `json:"medians"`
	Load       map[string]float64 `json:"load,omitempty"`
	Absent     []string           `json:"absent_counters,omitempty"`
	KernelUS   map[string]float64 `json:"kernel_us"` // the reference kernel's mean time in each phase
	Raw        map[string]float64 `json:"raw"`       // the end-to-end values before scaling to reference speed
	FirstError string             `json:"first_error,omitempty"`
}

type report struct {
	result result
	facts  facts
	spans  []spanRecord
	self   map[string]time.Duration
}

// setupTimes runs the workload's setup in groups and returns each group's
// mean setup time and the number of setups. The host's CPUs switch between
// a fast and a slow state several times a second, so a setup of a few
// milliseconds reads one state or the other, and a median over single
// setups flips between the two from run to run. A group's mean spans many
// switches.
func setupTimes(w workload, o options) ([]time.Duration, int, error) {
	var groups []time.Duration
	n := 0
	first := time.Now()
	for len(groups) < o.setupGroups || time.Since(first) < o.setupTime {
		var spent time.Duration
		k := 0
		for k == 0 || spent < o.setupGroup {
			runtime.GC()
			start := time.Now()
			if err := w.setup(o.seed, o.dir); err != nil {
				return nil, 0, fmt.Errorf("setup: %w", err)
			}
			spent += time.Since(start)
			k++
		}
		groups = append(groups, spent/time.Duration(k))
		n += k
	}
	return groups, n, nil
}

// execute sets the workload up, repeatedly, then measures it.
func execute(ctx context.Context, w workload, o options) (*report, error) {
	rep := &report{facts: facts{Seed: o.seed, Seconds: o.measure.Seconds(), Trace: o.trace, Params: w.params(), Host: readHost()}}
	meter := startSpeedometer()
	defer meter.close()
	k0 := meter.read()
	groups, setups, err := setupTimes(w, o)
	if err != nil {
		return nil, err
	}
	k1 := meter.read()
	for _, g := range groups {
		rep.facts.SetupS = append(rep.facts.SetupS, g.Seconds())
	}

	plainTime := o.measure
	if o.trace {
		plainTime /= 2
	}
	plain, err := w.measure(ctx, plainTime, meter, nil)
	if err != nil {
		return nil, err
	}
	k2 := meter.read()
	setupKernel := k1.since(k0)
	rep.facts.KernelUS = map[string]float64{"setup": us(setupKernel), "measure": us(k2.since(k1))}
	rep.facts.Samples = map[string]int{"setups": setups, "setup_groups": len(groups), "ops": plain.ops, "ready": plain.readies}
	if plain.rounds > 0 {
		rep.facts.Samples["rounds"] = plain.rounds
	}
	rep.facts.Load, rep.facts.Medians, rep.facts.Raw = plain.load, plain.medians, plain.raw
	rep.facts.Raw["setup_s"] = median(groups).Seconds()
	values := plain.endToEnd
	values["setup_s"] = scale(median(groups), setupKernel).Seconds()
	for _, m := range endToEndMetrics {
		if v := values[m.name]; !(v > 0) {
			return nil, fmt.Errorf("end-to-end metric %s not measured", m.name)
		}
	}
	specs := endToEndMetrics
	phases := []*phase{plain}

	if o.trace {
		tr := newTracer()
		traced, err := w.measure(ctx, o.measure-plainTime, meter, tr)
		if err != nil {
			return nil, err
		}
		rep.facts.KernelUS["traced"] = us(meter.read().since(k2))
		rep.facts.Samples["traced_ops"] = traced.ops
		rep.spans = tr.records()
		self := selfTimes(rep.spans)
		rep.self = selfByName(rep.spans, self)
		values = traced.layers
		values["bench.residual_ratio"] = residualRatio(rep.spans, self, w.root())
		values["bench.trace_overhead_ratio"] = ratio(traced.overheadBase, plain.overheadBase) - 1
		rep.facts.Absent = traced.absent
		specs = perLayerMetrics
		var unattributed error
		if r := values["bench.residual_ratio"]; r > maxResidual {
			unattributed = fmt.Errorf("%.1f%% of the traced wall time is outside every layer's span (limit %.0f%%)", 100*r, 100*maxResidual)
		}
		traced.record(unattributed)
		phases = append(phases, traced)
	}

	rep.result.Metrics = map[string]metricValue{}
	for _, m := range specs {
		rep.result.Metrics[m.name] = metricValue{Value: values[m.name], Unit: m.unit} // a layer the workload does not run reads 0
	}
	for _, p := range phases {
		rep.result.Attempted += p.attempted
		rep.result.Failed += p.failed
		if p.firstErr != nil && rep.facts.FirstError == "" {
			rep.facts.FirstError = p.firstErr.Error()
		}
	}
	rep.result.Correct = rep.result.Failed == 0
	return rep, nil
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: walk or serve-cold")
	seed := fs.Uint64("seed", 1, "seed of the data-file order, the request order and the arrival schedule")
	seconds := fs.Float64("seconds", 45, "how long to measure, in seconds")
	traceFlag := fs.Int("trace", 0, "1: measure half the time with per-layer recording and print the per-layer metrics")
	spansPath := fs.String("spans", "", "with -trace 1, write the recorded spans and each layer's self time to this JSON file")
	rate := fs.Float64("rate", 0, "serve-cold: requests per second in the load steps instead of the workload's rate, to measure where the server saturates; such runs do not compare with the benchmark's")
	work := fs.String("work", "", "directory to hold the run's data files, removed at exit (default: the system's temporary directory)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := newWorkload(*name)
	if w == nil || (*traceFlag != 0 && *traceFlag != 1) || *seconds <= 0 || *rate < 0 {
		fmt.Fprintf(stderr, "bench: need -workload walk|serve-cold, -seconds > 0, -trace 0|1 and -rate >= 0\n")
		return 2
	}
	if s, ok := w.(*serve); ok && *rate > 0 {
		s.rate = *rate
	}
	dir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	rep, err := execute(ctx, w, options{
		seed:        *seed,
		measure:     time.Duration(*seconds * float64(time.Second)),
		trace:       *traceFlag == 1,
		setupGroups: 3,
		setupGroup:  500 * time.Millisecond,
		setupTime:   3 * time.Second,
		dir:         dir,
	})
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *name, err)
		return 1
	}
	rep.facts.Workload = *name
	if rep.self != nil {
		printSelfTimes(stderr, rep.self)
		if *spansPath != "" {
			if err := writeSpans(*spansPath, rep); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
	}
	if rep.facts.FirstError != "" {
		fmt.Fprintf(stderr, "bench: %d of %d checks failed; first: %s\n", rep.result.Failed, rep.result.Attempted, rep.facts.FirstError)
	}
	enc := json.NewEncoder(stdout)
	if err := errors.Join(enc.Encode(rep.facts), enc.Encode(rep.result)); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !rep.result.Correct {
		return 1
	}
	return 0
}

// printSelfTimes writes each layer's self time, largest first.
func printSelfTimes(w io.Writer, self map[string]time.Duration) {
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintln(w, "self time by span (traced phase):")
	for _, n := range names {
		fmt.Fprintf(w, "  %-18s %10.3f s\n", n, self[n].Seconds())
	}
}

func writeSpans(path string, rep *report) error {
	self := map[string]float64{}
	for n, d := range rep.self {
		self[n] = d.Seconds()
	}
	data, err := json.Marshal(map[string]any{"spans": rep.spans, "self_s": self})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
