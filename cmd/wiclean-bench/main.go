// Command wiclean-bench regenerates the paper's evaluation: every panel of
// Figure 4, the §6.2 small-data candidate comparison, the §6.3 quality
// protocol, Table 1's heuristic grid, and the ablation studies DESIGN.md
// calls out.
//
//	wiclean-bench -fig 4a             # one figure
//	wiclean-bench -exp quality        # one experiment
//	wiclean-bench -all                # everything (slow)
//	wiclean-bench -all -scale 0.2     # everything, scaled-down seed counts
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"

	"wiclean/internal/experiments"
	"wiclean/internal/logx"
)

func main() {
	fig := flag.String("fig", "", "figure to regenerate: 4a, 4b, 4c, 4d")
	exp := flag.String("exp", "", "experiment to run: smalldata, quality, table1, ablations")
	all := flag.Bool("all", false, "run everything")
	scale := flag.Float64("scale", 1.0, "seed-count scale factor (e.g. 0.2 for quick runs)")
	seed := flag.Uint64("seed", 1, "generator random seed")
	workers := flag.Int("workers", 0, "parallel workers: join workers inside each window and detection workers (0 = all cores)")
	levels := flag.Int("abstraction", 1, "type-hierarchy levels to mine at")
	viaDump := flag.Bool("viadump", true, "measure preprocessing through the wikitext parse path")
	flag.Parse()

	lg := logx.New(os.Stderr, slog.LevelInfo)
	fatal := func(msg string, err error) {
		lg.Error(msg, slog.Any("error", err))
		os.Exit(1)
	}

	cfg := experiments.DefaultConfig()
	cfg.Seed = *seed
	cfg.Workers = *workers
	cfg.Abstraction = *levels
	cfg.ViaDump = *viaDump

	sc := func(n int) int {
		v := int(float64(n) * *scale)
		if v < 20 {
			v = 20
		}
		return v
	}

	ran := false
	run := func(name string, want string, f func() error) {
		if !*all && *fig != want && *exp != want {
			return
		}
		ran = true
		if err := f(); err != nil {
			fatal("experiment "+name, err)
		}
	}

	run("figure 4a", "4a", func() error {
		rows, err := experiments.Fig4a(cfg)
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
}
