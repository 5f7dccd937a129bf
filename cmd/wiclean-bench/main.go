// Command wiclean-bench regenerates the paper's evaluation: every panel of
// Figure 4, the §6.2 small-data candidate comparison, the §6.3 quality
// protocol, Table 1's heuristic grid, and the ablation studies DESIGN.md
// calls out.
//
//	wiclean-bench -fig 4a             # one figure
//	wiclean-bench -exp quality        # one experiment
//	wiclean-bench -all                # everything (slow)
//	wiclean-bench -all -scale 0.2     # everything, scaled-down seed counts
//	wiclean-bench -all -out bench.json  # machine-readable report:
//	                                    # per-phase wall time + obs counters
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"wiclean/internal/experiments"
	"wiclean/internal/logx"
	"wiclean/internal/obs"
)

// PhaseReport is one experiment phase's wall-clock cost in the JSON report.
type PhaseReport struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// JoinWorkersReport is one pool size of the joinworkers experiment in the
// JSON report: serial-vs-parallel wall time plus the LPT-modeled makespan
// and speedup of the extension-job list (the wall-clock figure a host with
// that many cores would approach).
type JoinWorkersReport struct {
	Workers         int     `json:"workers"`
	Jobs            int     `json:"jobs"`
	Comparisons     int64   `json:"comparisons"`
	MeasuredSeconds float64 `json:"measured_seconds"`
	BusySeconds     float64 `json:"busy_seconds"`
	ModelSeconds    float64 `json:"model_seconds"`
	ModelSpeedup    float64 `json:"model_speedup"`
}

// BenchReport is the -out payload: what ran, how long each phase took, and
// the pipeline metrics that explain where the time went (joins performed,
// patterns admitted/rejected, type pulls, windows mined, ...).
type BenchReport struct {
	Timestamp   string                     `json:"timestamp"`
	Scale       float64                    `json:"scale"`
	Seed        uint64                     `json:"seed"`
	Workers     int                        `json:"workers"`
	JoinWorkers []JoinWorkersReport        `json:"join_workers,omitempty"`
	Sources     *experiments.SourcesResult `json:"sources,omitempty"`
	Serving     *experiments.ServingResult `json:"serving,omitempty"`
	Phases      []PhaseReport              `json:"phases"`
	Metrics     obs.Snapshot               `json:"metrics"`
}

func main() {
	fig := flag.String("fig", "", "figure to regenerate: 4a, 4b, 4c, 4d")
	exp := flag.String("exp", "", "experiment to run: smalldata, quality, table1, ablations, joinworkers, sources, serving")
	all := flag.Bool("all", false, "run everything")
	scale := flag.Float64("scale", 1.0, "seed-count scale factor (e.g. 0.2 for quick runs)")
	seed := flag.Uint64("seed", 1, "generator random seed")
	workers := flag.Int("workers", 0, "parallel workers: join workers inside each window and detection workers (0 = all cores)")
	levels := flag.Int("abstraction", 1, "type-hierarchy levels to mine at")
	viaDump := flag.Bool("viadump", true, "measure preprocessing through the wikitext parse path")
	faultRate := flag.Float64("fault-rate", 0.2, "transient fault rate for -exp sources")
	out := flag.String("out", "", "write a JSON report (phases + metrics) to this file")
	flag.Parse()

	lg := logx.New(os.Stderr, slog.LevelInfo)
	fatal := func(msg string, err error) {
		lg.Error(msg, slog.Any("error", err))
		os.Exit(1)
	}

	metrics := obs.NewRegistry()
	cfg := experiments.DefaultConfig()
	cfg.Seed = *seed
	cfg.Workers = *workers
	cfg.Abstraction = *levels
	cfg.ViaDump = *viaDump
	cfg.Obs = metrics

	sc := func(n int) int {
		v := int(float64(n) * *scale)
		if v < 20 {
			v = 20
		}
		return v
	}

	report := BenchReport{
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Scale:     *scale,
		Seed:      *seed,
		Workers:   *workers,
	}

	ran := false
	run := func(name string, want string, f func() error) {
		if !*all && *fig != want && *exp != want {
			return
		}
		ran = true
		start := time.Now()
		if err := f(); err != nil {
			fatal("experiment "+name, err)
		}
		report.Phases = append(report.Phases, PhaseReport{
			Name:    name,
			Seconds: time.Since(start).Seconds(),
		})
	}

	run("figure 4a", "4a", func() error {
		rows, err := figScaled(cfg, sc, experiments.Fig4a)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatFig4("Figure 4(a): running time vs seed-set size (tau 0.4, transfer month)", rows))
		return nil
	})
	run("figure 4b", "4b", func() error {
		rows, err := experiments.Fig4b(cfg)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatFig4("Figure 4(b): running time vs frequency threshold (500 seeds, transfer month)", rows))
		return nil
	})
	run("figure 4c", "4c", func() error {
		rows, err := experiments.Fig4c(cfg)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatFig4("Figure 4(c): running time vs window size (500 seeds, tau 0.4)", rows))
		return nil
	})
	run("figure 4d", "4d", func() error {
		rows, err := experiments.Fig4d(cfg, []int{sc(500), sc(1000), sc(2000), sc(3000)})
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatFig4d(rows))
		return nil
	})
	run("small data", "smalldata", func() error {
		res, err := experiments.SmallData(cfg, sc(200))
		if err != nil {
			return err
		}
		fmt.Println(res.Format())
		return nil
	})
	run("quality", "quality", func() error {
		rows, err := experiments.Quality(cfg, sc(1000))
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatQuality(rows))
		return nil
	})
	run("table 1", "table1", func() error {
		rows, err := experiments.Table1(cfg, sc(300))
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatTable1(rows))
		return nil
	})
	run("join workers", "joinworkers", func() error {
		rows, err := experiments.JoinWorkersScaling(cfg, sc(500), nil)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatJoinWorkers(rows))
		for _, r := range rows {
			report.JoinWorkers = append(report.JoinWorkers, JoinWorkersReport{
				Workers:         r.Workers,
				Jobs:            r.Jobs,
				Comparisons:     r.Comparisons,
				MeasuredSeconds: r.MeasuredWC.Seconds(),
				BusySeconds:     r.Busy.Seconds(),
				ModelSeconds:    r.Makespan.Seconds(),
				ModelSpeedup:    r.Speedup,
			})
		}
		return nil
	})
	run("serving", "serving", func() error {
		res, err := experiments.Serving(cfg, sc(100))
		if res != nil {
			fmt.Println(experiments.FormatServing(res))
		}
		if err != nil {
			return err
		}
		report.Serving = res
		return nil
	})
	run("sources", "sources", func() error {
		res, err := experiments.Sources(cfg, sc(300), *faultRate)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatSources(res))
		report.Sources = res
		return nil
	})
	run("ablations", "ablations", func() error {
		rows, err := experiments.Ablations(cfg, sc(300))
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatAblations(rows))
		return nil
	})

	if !ran {
		flag.Usage()
		os.Exit(2)
	}
	if *out != "" {
		report.Metrics = metrics.Snapshot()
		f, err := os.Create(*out)
		if err != nil {
			fatal("creating report", err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fatal("writing report", err)
		}
		if err := f.Close(); err != nil {
			fatal("closing report", err)
		}
		lg.Info("report written",
			slog.String("path", *out),
			slog.Int("phases", len(report.Phases)),
			slog.Int("counters", len(report.Metrics.Counters)))
	}
}

// figScaled adapts Fig4a to the scale factor by temporarily treating its
// fixed sizes; Fig4a generates its own worlds, so scaling happens inside.
func figScaled(cfg experiments.Config, sc func(int) int, f func(experiments.Config) ([]experiments.Fig4Row, error)) ([]experiments.Fig4Row, error) {
	_ = sc // Fig4a's 100/500/1000 sizes mirror the paper; scale via -scale on 4d instead
	return f(cfg)
}
