// Package core is the WiClean system façade: it wires the revision store,
// the window/pattern miner (Algorithm 2), the partial-update detector
// (Algorithm 3), and the edit assistant into the end-to-end pipeline the
// paper's browser plug-in drives — mine patterns and windows once, then
// alert on past partial edits and assist live ones.
package core

import (
	"fmt"

	"wiclean/internal/action"
	"wiclean/internal/assist"
	"wiclean/internal/detect"
	"wiclean/internal/mining"
	"wiclean/internal/obs"
	"wiclean/internal/obs/trace"
	"wiclean/internal/pattern"
	"wiclean/internal/taxonomy"
	"wiclean/internal/windows"
)

// System is a configured WiClean instance over one revision store.
type System struct {
	store  mining.Store
	config windows.Config
	obs    *obs.Registry // nil-safe; threaded through every stage
	tracer *trace.Tracer // nil-safe; one trace per window mining job

	outcome *windows.Outcome
}

// New returns a system over the store with the given configuration; pass
// windows.Defaults() for the paper's settings.
func New(store mining.Store, config windows.Config) *System {
	return &System{store: store, config: config, obs: config.Obs}
}

// WithObs attaches a metrics registry and returns the system. Every stage
// (mining, window refinement, detection, assistance) reports into it; a
// nil registry — the default — is a no-op throughout, so library users
// pay nothing.
func (s *System) WithObs(r *obs.Registry) *System {
	s.obs = r
	return s
}

// Obs returns the attached metrics registry (possibly nil).
func (s *System) Obs() *obs.Registry { return s.obs }

// WithTracer attaches a request-scoped tracer and returns the system:
// every subsequent Mine opens one trace per (window, step) mining job,
// spanning the mining phases down to individual source fetches. A nil
// tracer — the default — disables tracing at zero cost.
func (s *System) WithTracer(t *trace.Tracer) *System {
	s.tracer = t
	return s
}

// Tracer returns the attached tracer (possibly nil).
func (s *System) Tracer() *trace.Tracer { return s.tracer }

// Config returns the window-mining configuration the system was built
// with — the input to provenance fingerprinting (see internal/model).
func (s *System) Config() windows.Config { return s.config }

// WithCheckpoint wires a refinement checkpointer into subsequent Mine
// calls: every iteration persists the walk's state, and a killed run
// resumes from the last completed iteration. Pass a
// model.FileCheckpointer for the durable implementation.
func (s *System) WithCheckpoint(cp windows.Checkpointer) *System {
	s.config.Checkpoint = cp
	return s
}

// Store returns the revision store.
func (s *System) Store() mining.Store { return s.store }

// Registry returns the entity registry.
func (s *System) Registry() *taxonomy.Registry { return s.store.Registry() }

// Mine runs Algorithm 2 for the seed set over the span and caches the
// outcome for the downstream stages.
func (s *System) Mine(seeds []taxonomy.EntityID, seedType taxonomy.Type, span action.Window) (*windows.Outcome, error) {
	cfg := s.config
	cfg.Obs = s.obs
	cfg.Tracer = s.tracer
	o, err := windows.Run(s.store, seeds, seedType, span, cfg)
	if err != nil {
		return nil, err
	}
	s.outcome = o
	return o, nil
}

// MineType is Mine with the full population of the seed type as the seed
// set — the paper's entities(t) semantics.
func (s *System) MineType(seedType taxonomy.Type, span action.Window) (*windows.Outcome, error) {
	seeds := s.Registry().EntitiesOf(seedType)
	if len(seeds) == 0 {
		return nil, fmt.Errorf("core: no entities of type %q", seedType)
	}
	return s.Mine(seeds, seedType, span)
}

// MineSeedEntity resolves a seed entity name to its most specific type and
// mines that type — the Algorithm 2 entry point for "users not familiar
// with the type hierarchy".
func (s *System) MineSeedEntity(name string, span action.Window) (*windows.Outcome, error) {
	id, ok := s.Registry().Lookup(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown entity %q", name)
	}
	return s.MineType(s.Registry().TypeOf(id), span)
}

// Outcome returns the cached mining outcome, if Mine has run.
func (s *System) Outcome() *windows.Outcome { return s.outcome }

// UseOutcome installs a previously mined outcome — typically rebuilt from
// a persisted model file (see internal/model) — so that detection and
// assistance can run without re-mining. This is the warm-start path: a
// server handed a saved model reaches ready without invoking the miner.
// An outcome with a discovered width outside the system's
// [MinWindow, MaxWindow] is refused (windows.CheckWidths) and the
// installed outcome is kept.
func (s *System) UseOutcome(o *windows.Outcome) error {
	if o != nil {
		if err := windows.CheckWidths(o.Discovered, s.config); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	s.outcome = o
	return nil
}

// DetectErrors runs Algorithm 3 for every discovered pattern over its
// mined window width across the span, in parallel — the cleaning
// application of §5. Mine must have run.
func (s *System) DetectErrors(workers int) ([]*detect.Report, error) {
	if s.outcome == nil {
		return nil, fmt.Errorf("core: DetectErrors before Mine")
	}
	d := detect.New(s.store).WithObs(s.obs)
	var tasks []detect.Task
	for _, disc := range s.outcome.Discovered {
		for _, win := range s.outcome.Span.Split(disc.Width) {
			tasks = append(tasks, detect.Task{Pattern: disc.Pattern, Window: win})
		}
	}
	return d.FindAll(tasks, workers)
}

// DetectPattern runs Algorithm 3 for one pattern and window.
func (s *System) DetectPattern(p pattern.Pattern, w action.Window) (*detect.Report, error) {
	return detect.New(s.store).WithObs(s.obs).FindPartials(p, w)
}

// Assistant builds the on-line edit assistant from the mined patterns.
// Mine must have run.
func (s *System) Assistant() (*assist.Assistant, error) {
	if s.outcome == nil {
		return nil, fmt.Errorf("core: Assistant before Mine")
	}
	known := make([]assist.KnownPattern, 0, len(s.outcome.Discovered))
	for _, d := range s.outcome.Discovered {
		known = append(known, assist.KnownPattern{
			Pattern:   d.Pattern,
			Frequency: d.Frequency,
			Width:     d.Width,
		})
	}
	return assist.NewAssistant(s.store, known).WithObs(s.obs), nil
}

// PeriodicPatterns runs DetectErrors and returns Periodic over its
// reports. Mine must have run.
func (s *System) PeriodicPatterns(tolerance float64) ([]assist.PeriodicPattern, error) {
	if s.outcome == nil {
		return nil, fmt.Errorf("core: PeriodicPatterns before Mine")
	}
	reports, err := s.DetectErrors(0)
	if err != nil {
		return nil, err
	}
	return s.Periodic(reports, tolerance), nil
}

// Periodic groups the discovered patterns' frequent windows across the
// span and reports the ones recurring with a regular period, within the
// given relative tolerance. A pattern's frequent windows are those where
// it has at least one full realization, read from reports, DetectErrors'
// reports for this system's outcome; nil reports are skipped.
func (s *System) Periodic(reports []*detect.Report, tolerance float64) []assist.PeriodicPattern {
	occ := map[string][]assist.Occurrence{}
	pats := map[string]pattern.Pattern{}
	for _, rep := range reports {
		if rep == nil || rep.FullCount == 0 {
			continue
		}
		key := rep.Pattern.Canonical()
		pats[key] = rep.Pattern
		freq := float64(rep.FullCount)
		if n := len(s.outcome.Seeds); n > 0 {
			freq /= float64(n) // model-loaded outcomes carry no seeds
		}
		occ[key] = append(occ[key], assist.Occurrence{Window: rep.Window, Frequency: freq})
	}
	return assist.FindPeriodic(occ, pats, tolerance)
}
