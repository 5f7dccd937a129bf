package windows

import (
	"context"
	"fmt"
	"time"

	"wiclean/internal/action"
	"wiclean/internal/mining"
	"wiclean/internal/obs"
	"wiclean/internal/taxonomy"
)

// Run executes Algorithm 2: split span into W_min-sized windows, mine them
// all, and refine (window ×WindowFactor alternating with threshold
// −TauCut·100%) for as long as refinement keeps discovering new patterns,
// within the [MinWindow, MaxWindow] and [MinTau, InitialTau] bounds. The
// relative-patterns stage then runs over the converged windows.
func Run(store mining.Store, seeds []taxonomy.EntityID, seedType taxonomy.Type,
	span action.Window, cfg Config) (*Outcome, error) {
	return RunContext(context.Background(), store, seeds, seedType, span, cfg)
}

// RunContext is Run with cancellation: the walk stops cleanly between
// refinement iterations when ctx is done, returning the context's error.
// With cfg.Checkpoint set, the interrupted walk's state is already
// persisted, so a subsequent call resumes from the last completed
// iteration (the kill/restart contract of the warm-start serving path).
func RunContext(ctx context.Context, store mining.Store, seeds []taxonomy.EntityID,
	seedType taxonomy.Type, span action.Window, cfg Config) (*Outcome, error) {
	return run(ctx, store, seeds, seedType, span, cfg, true)
}

// run is RunContext. With carry false every step mines its windows afresh,
// cuts included: the walk as it was before cuts continued their miners,
// kept as the reference the carried walk is tested against.
func run(ctx context.Context, store mining.Store, seeds []taxonomy.EntityID,
	seedType taxonomy.Type, span action.Window, cfg Config, carry bool) (*Outcome, error) {

	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Mining.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()      //wiclean:allow-nondet Outcome.Elapsed wall time; refinement decisions never read it
	cfg.Mining.Obs = cfg.Obs // forward the registry to every window miner
	maxSteps := cfg.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 16
	}
	patience := cfg.Patience
	if patience <= 0 {
		patience = 6
	}

	out := &Outcome{
		SeedType: seedType,
		Seeds:    seeds,
		Span:     span,
	}
	seen := map[string]int{} // canonical -> index into out.Discovered

	width := cfg.MinWindow
	tau := cfg.InitialTau
	widenNext := true // alternation state: widen first, then cut, ...
	noProgress := 0   // consecutive refinement steps without new patterns
	startStep := 0

	// Resume: restore the walk from its last checkpoint, if one exists.
	// The state was captured at the top of iteration Step, so re-entering
	// the loop there replays the walk deterministically — identical
	// discoveries, identical convergence — with iterations 0..Step-1
	// skipped.
	if cfg.Checkpoint != nil {
		st, err := cfg.Checkpoint.Load()
		if err != nil {
			return nil, fmt.Errorf("windows: loading checkpoint: %w", err)
		}
		if st != nil {
			if err := st.check(cfg); err != nil {
				return nil, fmt.Errorf("windows: resuming checkpoint: %w", err)
			}
			startStep = st.Step
			width, tau = st.Width, st.Tau
			widenNext, noProgress = st.WidenNext, st.NoProgress
			out.Discovered = append([]DiscoveredPattern(nil), st.Discovered...)
			out.Stats = st.Stats
			out.WindowDurations = append([]time.Duration(nil), st.WindowDurations...)
			for i, d := range out.Discovered {
				seen[d.Pattern.Canonical()] = i
			}
			cfg.Obs.Counter(obs.CheckpointResumes).Inc()
		}
	}

	var finalResults []*mining.Result
	var finalWindows []action.Window

	// sessions are the window miners of the step before. A threshold cut
	// keeps the width, so it mines the same windows: it continues them
	// instead of mining afresh. Step 0, a widening step and the first step
	// after a resume start new ones. The floor is the lowest τ a cut can
	// reach.
	var sessions []*mining.Session

	for step := startStep; ; step++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("windows: interrupted before step %d: %w", step, err)
		}
		if cfg.Checkpoint != nil {
			st := &CheckpointState{
				Step:            step,
				Width:           width,
				Tau:             tau,
				WidenNext:       widenNext,
				NoProgress:      noProgress,
				Discovered:      out.Discovered,
				Stats:           out.Stats,
				WindowDurations: out.WindowDurations,
			}
			if err := cfg.Checkpoint.Save(st); err != nil {
				return nil, fmt.Errorf("windows: checkpointing step %d: %w", step, err)
			}
		}
		mcfg := cfg.Mining
		mcfg.Tau = tau
		wins := span.Split(width)
		// τ/width trajectory: the gauges track the refinement walk live and
		// end at the converged setting.
		cfg.Obs.Counter(obs.WindowsRefinementSteps).Inc()
		cfg.Obs.Gauge(obs.WindowsWidthDays).Set(float64(width / action.Day))
		cfg.Obs.Gauge(obs.WindowsTau).Set(tau)
		if sessions == nil {
			sessions = make([]*mining.Session, len(wins))
		}
		results, err := mineAll(ctx, cfg.Tracer, store, seeds, seedType, wins, sessions, mcfg, cfg.MinTau, step)
		if err != nil {
			return nil, err
		}
		cfg.Obs.Counter(obs.WindowsMined).Add(int64(len(wins)))
		newFound := 0
		total := 0
		for i, res := range results {
			out.Stats.Add(res.Stats)
			out.WindowDurations = append(out.WindowDurations, res.Stats.Preprocessing+res.Stats.Mining)
			for _, sp := range res.Patterns {
				total++
				key := sp.Pattern.Canonical()
				d := DiscoveredPattern{
					Pattern:     sp.Pattern,
					Frequency:   sp.Frequency,
					SourceCount: sp.SourceCount,
					Window:      wins[i],
					Width:       width,
					Tau:         tau,
				}
				if idx, ok := seen[key]; ok {
					if sp.Frequency > out.Discovered[idx].Frequency {
						out.Discovered[idx] = d
					}
					continue
				}
				seen[key] = len(out.Discovered)
				out.Discovered = append(out.Discovered, d)
				newFound++
			}
		}
		cfg.Obs.Counter(obs.WindowsDiscovered).Add(int64(newFound))
		finalResults, finalWindows = results, wins
		out.Width, out.Tau = width, tau
		out.RefinementSteps = step

		// refine? — continue while nothing qualified yet or while
		// refinement keeps surfacing additional patterns (§4.3). Because
		// the schedule alternates widening with threshold cuts, a full
		// alternation cycle (two consecutive steps) must come up empty
		// before the walk stops: a fruitless widening step alone says
		// nothing about what the next threshold cut would reveal.
		if newFound > 0 || total == 0 {
			noProgress = 0
		} else {
			noProgress++
		}
		if (noProgress >= patience && step > 0) || step >= maxSteps {
			break
		}
		nw, nt, ok := nextSetting(width, tau, &widenNext, cfg, span)
		if !ok {
			break
		}
		if nw != width || !carry {
			sessions = nil
		}
		width, tau = nw, nt
	}

	out.Windows = make([]WindowResult, len(finalResults))
	for i, res := range finalResults {
		out.Windows[i] = WindowResult{Window: finalWindows[i], Result: res}
	}

	if !cfg.SkipRelative {
		if err := relativeStage(ctx, store, out, cfg); err != nil {
			return nil, err
		}
	}
	// A completed run needs no resume point; the durable artifact from
	// here on is the model (internal/model), not the checkpoint.
	if cfg.Checkpoint != nil {
		if err := cfg.Checkpoint.Clear(); err != nil {
			return nil, fmt.Errorf("windows: clearing checkpoint: %w", err)
		}
	}
	out.Elapsed = time.Since(start) //wiclean:allow-nondet Outcome.Elapsed reporting only
	return out, nil
}

// nextSetting advances the refinement alternation, skipping moves that
// would breach a bound; it reports false when both directions are
// exhausted.
func nextSetting(width action.Time, tau float64, widenNext *bool, cfg Config, span action.Window) (action.Time, float64, bool) {
	widen := func() (action.Time, bool) {
		if cfg.WindowFactor <= 1 {
			return width, false // a 1.0x policy never widens (Table 1 row 2)
		}
		nw := action.Time(float64(width) * cfg.WindowFactor)
		// Clamp at the bounds ("up to a maximal window size of one year")
		// rather than skipping the final widening: the last, largest
		// window setting is often where low-participation periodic
		// patterns finally accumulate enough unioned support.
		if nw > cfg.MaxWindow {
			nw = cfg.MaxWindow
		}
		if nw > span.Width() {
			nw = span.Width()
		}
		if nw <= width {
			return width, false
		}
		return nw, true
	}
	cut := func() (float64, bool) {
		if cfg.TauCut == 0 {
			return tau, false
		}
		nt := tau * (1 - cfg.TauCut)
		if nt < cfg.MinTau {
			return tau, false
		}
		return nt, true
	}
	for attempts := 0; attempts < 2; attempts++ {
		if *widenNext {
			*widenNext = false
			if nw, ok := widen(); ok {
				return nw, tau, true
			}
		} else {
			*widenNext = true
			if nt, ok := cut(); ok {
				return width, nt, true
			}
		}
	}
	return width, tau, false
}

// relativeStage runs mining.MineRelativeContext over every final window
// in window order (Algorithm 2, lines 13–14), one trace root per window.
func relativeStage(ctx context.Context, store mining.Store, out *Outcome, cfg Config) error {
	mcfg := cfg.Mining
	mcfg.Tau = out.Tau
	for i := range out.Windows {
		rctx, root := cfg.Tracer.StartRoot(ctx, "windows.relative")
		root.SetAttrInt("window_index", int64(i))
		rel, err := mining.MineRelativeContext(rctx, store, out.Windows[i].Result, mcfg)
		root.Fail(err)
		root.End()
		if err != nil {
			return fmt.Errorf("windows: relative stage: %w", err)
		}
		out.Windows[i].Relative = rel
	}
	return nil
}
