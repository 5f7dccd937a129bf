package windows

import (
	"fmt"
	"time"

	"wiclean/internal/action"
	"wiclean/internal/mining"
)

// CheckpointState is the resumable state of the Algorithm 2 refinement
// walk, captured at the top of a refinement iteration (i.e. after the
// previous iteration fully completed). Resuming replays the walk from
// Step onward: because per-window mining is deterministic, re-entering the
// loop with the restored discovered set and τ/width trajectory produces
// exactly the outcome an uninterrupted run would have.
type CheckpointState struct {
	// Step is the refinement iteration about to run when the state was
	// captured; iterations 0..Step-1 are complete.
	Step int `json:"step"`

	// Width, Tau and WidenNext are the refinement setting and alternation
	// state for iteration Step.
	Width     action.Time `json:"width"`
	Tau       float64     `json:"tau"`
	WidenNext bool        `json:"widen_next"`

	// NoProgress counts consecutive fruitless steps so far (the patience
	// walk of §4.3 resumes mid-streak).
	NoProgress int `json:"no_progress"`

	// Discovered is every distinct pattern found through iteration Step-1,
	// each with its best-frequency occurrence.
	Discovered []DiscoveredPattern `json:"discovered"`

	// Stats and WindowDurations are the work accounting accumulated so
	// far; restored so a resumed run's outcome reports the whole walk.
	Stats           mining.Stats    `json:"stats"`
	WindowDurations []time.Duration `json:"window_durations,omitempty"`
}

// check returns an error unless the state lies within cfg's bounds, as
// every state the walk saves does: a width in [MinWindow, MaxWindow], a τ
// in [MinTau, InitialTau], a step and a streak that are not negative, and
// discovered patterns that pass CheckWidths. A width of one second would
// split a one-year span into 31,536,000 windows.
func (st *CheckpointState) check(cfg Config) error {
	switch {
	case st.Width < cfg.MinWindow || st.Width > cfg.MaxWindow:
		return fmt.Errorf("width %d outside [%d, %d]", st.Width, cfg.MinWindow, cfg.MaxWindow)
	case !(st.Tau >= cfg.MinTau && st.Tau <= cfg.InitialTau):
		return fmt.Errorf("tau %v outside [%v, %v]", st.Tau, cfg.MinTau, cfg.InitialTau)
	case st.Step < 0:
		return fmt.Errorf("negative step %d", st.Step)
	case st.NoProgress < 0:
		return fmt.Errorf("negative no-progress streak %d", st.NoProgress)
	}
	return CheckWidths(st.Discovered, cfg)
}

// CheckWidths returns an error naming the first discovered pattern whose
// width lies outside cfg's [MinWindow, MaxWindow], the range every walk
// keeps its widths in. Detection splits the span by each pattern's
// width, so a stored width of one second over a 120-day span would make
// 10,368,000 detection tasks for that pattern alone.
func CheckWidths(ds []DiscoveredPattern, cfg Config) error {
	for i, d := range ds {
		if d.Width < cfg.MinWindow || d.Width > cfg.MaxWindow {
			return fmt.Errorf("discovered pattern %d (%s) has width %d outside [%d, %d]",
				i, d.Pattern, d.Width, cfg.MinWindow, cfg.MaxWindow)
		}
	}
	return nil
}

// Checkpointer persists refinement state between iterations. Run calls
// Save at the top of each iteration, Load once at startup, and Clear
// after a fully successful run. The file-backed implementation with a
// versioned envelope and provenance guard lives in internal/model
// (model.FileCheckpointer); windows only depends on this interface so the
// serialization format stays in one place without an import cycle.
type Checkpointer interface {
	// Save persists the state; it must not retain st after returning.
	Save(st *CheckpointState) error

	// Load returns the most recent state, or (nil, nil) when none exists.
	// A state recorded against different inputs should fail here, not
	// resume silently.
	Load() (*CheckpointState, error)

	// Clear discards the persisted state after a successful run.
	Clear() error
}
