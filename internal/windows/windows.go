// Package windows implements Algorithm 2 of the paper (§4.3): splitting
// the revision timeline into non-overlapping windows, mining each window,
// and iteratively refining the window width and frequency threshold until
// the discovered pattern set stabilizes, followed by the
// relative-frequent-patterns stage (§4.2).
//
// Windows are mined one at a time, in window order. The paper runs the
// per-window loop in parallel; here the parallelism lives one level down,
// in each window miner's join-worker pool (mining.Config.JoinWorkers),
// because a refinement walk's late steps put nearly all of their mining
// time into one or two wide windows that a cross-window pool cannot split.
//
// A threshold cut keeps the width, so it mines the same windows as the
// step before at a lower τ: each window's mining.Session is continued
// instead of mining the window again. A widening step, step 0 and the
// first step after a checkpoint resume mine fresh, and a continued miner
// finds exactly what a fresh one would.
//
// Every window miner and every refinement iteration consumes the
// same mining.Store instance. When that store is a source.Store, its LRU
// cache of per-type histories is therefore shared across the whole walk:
// the widening steps re-request the same entity types and hit the cache
// instead of the backend, and a fetch failure in any window aborts the
// run with a typed error instead of converging on patterns mined from a
// partially fetched graph.
package windows

import (
	"context"
	"fmt"
	"time"

	"wiclean/internal/action"
	"wiclean/internal/mining"
	"wiclean/internal/obs"
	"wiclean/internal/obs/trace"
	"wiclean/internal/pattern"
	"wiclean/internal/taxonomy"
)

// Config holds the Algorithm 2 parameters and the refinement policy of
// §4.3. The defaults mirror the paper: two-week minimal window, one-year
// maximal window, thresholds refined from the initial value down to 0.2 by
// alternating "multiply the window size by two" and "reduce the frequency
// threshold by 20%".
type Config struct {
	MinWindow    action.Time // W_min, the initial window width
	MaxWindow    action.Time // refinement stops widening beyond this
	InitialTau   float64     // starting frequency threshold
	MinTau       float64     // refinement stops cutting below this
	WindowFactor float64     // widening multiplier per refinement step
	TauCut       float64     // fractional threshold reduction per step
	MaxSteps     int         // hard bound on refinement steps; <=0 = 16

	// Patience is how many consecutive fruitless refinement steps the walk
	// tolerates once at least one pattern has been found (<=0 = 6). The
	// alternating schedule interleaves widening and threshold cuts, so a
	// single fruitless step says little; larger patience walks deeper
	// (better recall, more runtime and noise exposure), which is exactly
	// the trade-off Table 1 explores.
	Patience int

	// Mining configures the per-window miner, including the size of its
	// join-worker pool; its Tau field is overridden by the refinement loop.
	Mining mining.Config

	// SkipRelative disables the relative-patterns stage (used by running
	// time experiments that only measure the frequent-patterns stage).
	SkipRelative bool

	// Checkpoint, when non-nil, persists the refinement walk's state at
	// the top of each iteration so a killed run resumes from its last
	// completed iteration instead of restarting at step 0 (see
	// model.NewCheckpointer for the file-backed implementation). Because
	// per-window mining is deterministic, a resumed run converges on the
	// same outcome an uninterrupted one would.
	Checkpoint Checkpointer

	// Obs receives the refinement walk's metrics (steps, windows mined,
	// discoveries, the τ/width trajectory) and is forwarded to every
	// per-window miner, which observes each job's mining time. Nil is a
	// safe no-op.
	Obs *obs.Registry

	// Tracer, when non-nil, opens one request-scoped trace per (window,
	// refinement step) mining job — root span "windows.window", carrying
	// the window index, step, width and seed type as attributes, with the
	// mining phases and source fetches as descendants — plus one
	// "windows.relative" trace per final window. Tracing is observe-only:
	// the Outcome is identical with a nil Tracer. See internal/obs/trace.
	Tracer *trace.Tracer
}

// Defaults returns the paper's default configuration.
func Defaults() Config {
	return Config{
		MinWindow:    2 * action.Week,
		MaxWindow:    action.Year,
		InitialTau:   0.7,
		MinTau:       0.2,
		WindowFactor: 2.0,
		TauCut:       0.20,
		Mining:       mining.PM(0.7),
	}
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	if c.MinWindow <= 0 {
		return fmt.Errorf("windows: MinWindow %d <= 0", c.MinWindow)
	}
	if c.MaxWindow < c.MinWindow {
		return fmt.Errorf("windows: MaxWindow %d < MinWindow %d", c.MaxWindow, c.MinWindow)
	}
	if c.InitialTau <= 0 || c.InitialTau > 1 {
		return fmt.Errorf("windows: InitialTau %v out of (0, 1]", c.InitialTau)
	}
	if c.MinTau <= 0 || c.MinTau > c.InitialTau {
		return fmt.Errorf("windows: MinTau %v out of (0, InitialTau]", c.MinTau)
	}
	if c.WindowFactor < 1 {
		return fmt.Errorf("windows: WindowFactor %v < 1", c.WindowFactor)
	}
	if c.TauCut < 0 || c.TauCut >= 1 {
		return fmt.Errorf("windows: TauCut %v out of [0, 1)", c.TauCut)
	}
	return nil
}

// WindowResult pairs one time window with its mining result and, after the
// relative stage, its relative patterns keyed by base-pattern canonical
// form.
type WindowResult struct {
	Window   action.Window
	Result   *mining.Result
	Relative map[string][]mining.RelativePattern
}

// DiscoveredPattern records a pattern together with the window and
// refinement setting under which it was (best) observed — the paper's
// output couples every pattern with its time frame (e.g. the simple
// transfer pattern at a one-week window vs the complex one at two weeks).
type DiscoveredPattern struct {
	Pattern     pattern.Pattern
	Frequency   float64
	SourceCount int
	Window      action.Window
	Width       action.Time
	Tau         float64
}

// String renders the discovery.
func (d DiscoveredPattern) String() string {
	return fmt.Sprintf("freq %.2f @ width %dd τ %.2f window %v: %s",
		d.Frequency, d.Width/action.Day, d.Tau, d.Window, d.Pattern)
}

// Outcome is the result of a full Algorithm 2 run.
type Outcome struct {
	SeedType taxonomy.Type
	Seeds    []taxonomy.EntityID
	Span     action.Window

	// Width and Tau are the converged refinement setting.
	Width action.Time
	Tau   float64

	// Windows holds the final iteration's per-window results.
	Windows []WindowResult

	// Discovered accumulates every distinct pattern found across all
	// refinement iterations, each with its best-frequency occurrence.
	Discovered []DiscoveredPattern

	RefinementSteps int
	Stats           mining.Stats  // aggregated over all windows and steps
	Elapsed         time.Duration // wall clock of the whole run

	// WindowDurations records the mining time of every (window, step) job
	// across the refinement walk; its length is the walk's job count.
	WindowDurations []time.Duration
}

// Patterns returns the discovered patterns (already deduped across
// iterations), sorted by descending frequency.
func (o *Outcome) Patterns() []DiscoveredPattern { return o.Discovered }

// mineAll mines every window of the split in window order and returns the
// results. sessions holds one miner per window: a nil entry gets a fresh
// session with the given floor, and a set one, kept from the previous
// step, is continued at cfg.Tau. Each (window, step) job runs under its
// own trace root. The first failing window stops the step.
func mineAll(ctx context.Context, tracer *trace.Tracer, store mining.Store,
	seeds []taxonomy.EntityID, seedType taxonomy.Type,
	wins []action.Window, sessions []*mining.Session, cfg mining.Config, floor float64, step int) ([]*mining.Result, error) {

	results := make([]*mining.Result, len(wins))
	for i, win := range wins {
		wctx, root := tracer.StartRoot(ctx, "windows.window")
		root.SetAttrInt("window_index", int64(i))
		root.SetAttrInt("step", int64(step))
		root.SetAttr("seed_type", string(seedType))
		root.SetAttrInt("width_days", int64(win.Width()/action.Day))
		var err error
		if sessions[i] == nil {
			sessions[i], err = mining.NewSession(store, seeds, seedType, win, cfg, floor)
		}
		var res *mining.Result
		if err == nil {
			res, err = sessions[i].Mine(wctx, cfg.Tau)
		}
		root.Fail(err)
		root.End()
		if err != nil {
			return nil, err
		}
		results[i] = res
	}
	return results, nil
}
