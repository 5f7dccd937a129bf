// Package wiclean is a from-scratch Go implementation of WiClean, the
// system of "Fixing Wikipedia Interlinks Using Revision History Patterns"
// (Milo, Novgorodov, Razmadze — EDBT 2021).
//
// Given revision histories of typed entities, WiClean mines connected edit
// patterns — combinations of link additions/removals that editors tend to
// perform together — along with the time windows in which partial edits
// are tolerable. It then flags past edits that never completed a known
// pattern inside its window, suggests concrete completions with
// statistical evidence, and assists live editing sessions.
//
// The minimal flow:
//
//	world, _ := wiclean.GenerateWorld(wiclean.Soccer(), 500, 1)
//	sys := wiclean.NewSystem(world.History, wiclean.DefaultConfig())
//	outcome, _ := sys.MineType("FootballPlayer", world.Span)
//	reports, _ := sys.DetectErrors(0)
//
// Everything the library needs is implemented in this repository on the Go
// standard library alone: the type taxonomy, the revision/dump store with
// a wikitext infobox parser, an in-memory relational engine with hash and
// outer joins (the paper's "SQL engine"), the pattern model with its
// specificity order, the grow-and-store miner with its two optimizations
// and their ablation variants, the window refinement driver, the
// outer-join error detector, the edit assistant, a synthetic Wikipedia
// generator standing in for the paper's crawled data, and the experiment
// harness reproducing every table and figure of the paper's evaluation.
package wiclean

import (
	"wiclean/internal/action"
	"wiclean/internal/assist"
	"wiclean/internal/core"
	"wiclean/internal/detect"
	"wiclean/internal/dump"
	"wiclean/internal/mining"
	"wiclean/internal/model"
	"wiclean/internal/obs"
	"wiclean/internal/pattern"
	"wiclean/internal/sql"
	"wiclean/internal/synth"
	"wiclean/internal/taxonomy"
	"wiclean/internal/windows"
)

// Data model.
type (
	// Type is a taxonomy type name (e.g. "FootballPlayer").
	Type = taxonomy.Type
	// Taxonomy is the rooted type hierarchy with the t' ≤ t order.
	Taxonomy = taxonomy.Taxonomy
	// Registry maps entity names to IDs and most specific types.
	Registry = taxonomy.Registry
	// EntityID is a dense entity handle.
	EntityID = taxonomy.EntityID

	// Op is an edit operation (Add or Remove).
	Op = action.Op
	// Label names a link relation.
	Label = action.Label
	// Time is a revision timestamp (seconds).
	Time = action.Time
	// Edge is a directed labeled link.
	Edge = action.Edge
	// Action is one revision edit: op, edge, timestamp.
	Action = action.Action
	// Window is a half-open time frame.
	Window = action.Window

	// Pattern is a set of abstract actions over typed variables.
	Pattern = pattern.Pattern
	// AbstractAction is one edit over pattern variables.
	AbstractAction = pattern.AbstractAction

	// History stores per-entity revision actions (implements the miner's
	// Store interface).
	History = dump.History
	// Revision is one raw wikitext revision of an article.
	Revision = dump.Revision

	// MiningConfig configures Algorithm 1 (thresholds, join strategy,
	// incremental construction).
	MiningConfig = mining.Config
	// MiningResult is one window's mining outcome.
	MiningResult = mining.Result
	// ScoredPattern is a mined pattern with support evidence.
	ScoredPattern = mining.ScoredPattern
	// RelativePattern is a most specific relative frequent pattern.
	RelativePattern = mining.RelativePattern
	// ConstantPattern is a value-specific pattern instantiation (a pattern
	// specific to one entity, the paper's §7 extension).
	ConstantPattern = mining.ConstantPattern

	// Config configures Algorithm 2 (window split, refinement policy).
	Config = windows.Config
	// Outcome is a full Algorithm 2 run's result.
	Outcome = windows.Outcome
	// DiscoveredPattern couples a pattern with its window and setting.
	DiscoveredPattern = windows.DiscoveredPattern

	// Report is Algorithm 3's output for one (pattern, window).
	Report = detect.Report
	// PartialEdit is one signaled potential error.
	PartialEdit = detect.PartialEdit
	// Suggestion is one concrete completion for a partial edit.
	Suggestion = detect.Suggestion

	// Advice is the assistant's response to a live edit.
	Advice = assist.Advice
	// Assistant matches live edits against known patterns.
	Assistant = assist.Assistant
	// PeriodicPattern is a pattern recurring with a regular period.
	PeriodicPattern = assist.PeriodicPattern

	// Domain describes a synthetic evaluation domain.
	Domain = synth.Domain
	// World is a generated synthetic Wikipedia universe.
	World = synth.World

	// System is the end-to-end WiClean pipeline over one store.
	System = core.System

	// ModelFile is the versioned, provenance-guarded on-disk model — the
	// persistent pattern store the serving path warm-starts from.
	ModelFile = model.File
	// ModelProvenance fingerprints the inputs a model was mined from.
	ModelProvenance = model.Provenance

	// Database is a SQL-queryable view of a revision log (tables: actions,
	// reduced).
	Database = sql.Database

	// Metrics is the pipeline's observability registry: atomic counters,
	// gauges and histograms with JSON / Prometheus snapshots. Attach one
	// with System.WithObs; a nil registry is a no-op throughout. Its span
	// summaries come from trace spans, which a library caller does not
	// attach: read stage times from Outcome.Elapsed, Outcome.WindowDurations
	// and MiningResult.Stats instead.
	Metrics = obs.Registry
	// MetricsSnapshot is a point-in-time copy of a Metrics registry.
	MetricsSnapshot = obs.Snapshot
)

// Edit operations.
const (
	Add    = action.Add
	Remove = action.Remove
)

// Common durations in Time units.
const (
	Hour = action.Hour
	Day  = action.Day
	Week = action.Week
	Year = action.Year
)

// NewTaxonomy returns a taxonomy containing only the root type.
func NewTaxonomy() *Taxonomy { return taxonomy.New() }

// NewRegistry returns an empty entity registry over the taxonomy.
func NewRegistry(tax *Taxonomy) *Registry { return taxonomy.NewRegistry(tax) }

// NewHistory returns an empty revision history over the registry.
func NewHistory(reg *Registry) *History { return dump.NewHistory(reg) }

// NewSystem wires a WiClean instance over a revision store.
func NewSystem(store mining.Store, config Config) *System { return core.New(store, config) }

// NewMetrics returns an empty observability registry; attach it with
// System.WithObs to collect per-stage counters and latency histograms,
// then read them via Snapshot or serve them with the plugin server's
// /metrics endpoint. Stage times are in Outcome.Elapsed (the whole walk),
// Outcome.WindowDurations (each window job) and MiningResult.Stats (each
// window's preprocessing and mining).
func NewMetrics() *Metrics { return obs.NewRegistry() }

// DefaultConfig returns the paper's default Algorithm 2 configuration:
// two-week minimal windows, one-year maximum, threshold 0.7 refined down
// to 0.2 by alternating window doubling with 20% threshold cuts.
func DefaultConfig() Config {
	c := windows.Defaults()
	c.Mining = mining.PM(c.InitialTau)
	c.Mining.MaxAbstraction = 1
	return c
}

// PM returns Algorithm 1's full configuration at a threshold. The §6.1
// ablation variants are built inside this module by mining.PMNoJoin,
// PMNoInc and PMNoIncNoJoin, which code outside it cannot import; there,
// setting Incremental to false gives PM−inc.
func PM(tau float64) MiningConfig { return mining.PM(tau) }

// Mine runs Algorithm 1 directly for one window.
func Mine(store mining.Store, seeds []EntityID, seedType Type, w Window, cfg MiningConfig) (*MiningResult, error) {
	return mining.Mine(store, seeds, seedType, w, cfg)
}

// SpecializeConstants derives value-specific pattern instantiations from a
// mining result: variables dominated by a single entity (at least share of
// realizations) are pinned to it — "a pattern specific to PSG, but not to
// football clubs in general" (§7).
func SpecializeConstants(res *MiningResult, reg *Registry, share float64) []ConstantPattern {
	return mining.SpecializeConstants(res, reg, share)
}

// NewDetector returns an Algorithm 3 detector over the store.
func NewDetector(store mining.Store) *detect.Detector { return detect.New(store) }

// NewDatabase builds the SQL-queryable relations (actions, reduced) over a
// history within a window — the relational face of the paper's Figure 1.
func NewDatabase(h *History, w Window) *Database { return sql.NewDatabase(h, w) }

// Persistent model store (internal/model): versioned files with a
// provenance fingerprint, checked at load so a stale model is rejected
// rather than silently served. Typical flow:
//
//	prov, _ := wiclean.Fingerprint(reg, span, cfg)
//	_ = wiclean.SaveModel("model.json", wiclean.SnapshotModel(outcome, reg, prov), nil)
//	f, _ := wiclean.LoadModel("model.json", nil)
//	if err := f.Verify(prov); err == nil { err = sys.UseOutcome(f.Outcome()) }
var (
	// SaveModel atomically writes a model file (metrics registry optional).
	SaveModel = model.Save
	// LoadModel reads and validates a model file.
	LoadModel = model.Load
	// Fingerprint computes the provenance of mining a registry over a span
	// with a configuration.
	Fingerprint = model.Fingerprint
	// SnapshotModel extracts the serializable part of an outcome.
	SnapshotModel = model.Snapshot
	// NewCheckpointer returns a file-backed refinement checkpointer; wire
	// it with System.WithCheckpoint to make Algorithm 2 runs resumable.
	NewCheckpointer = model.NewCheckpointer
)

// Synthetic evaluation domains (the paper's three).
func Soccer() Domain         { return synth.Soccer() }
func Cinematography() Domain { return synth.Cinematography() }
func USPoliticians() Domain  { return synth.USPoliticians() }

// DomainByName resolves "soccer", "cinematography" or "us-politicians".
func DomainByName(name string) (Domain, error) { return synth.DomainByName(name) }

// GenerateWorld builds a synthetic world of the domain with the given seed
// entity count, reproducible from seed. The simulated revision log spans
// one year.
func GenerateWorld(d Domain, seedEntities int, seed uint64) (*World, error) {
	p := synth.DefaultParams(d, seedEntities)
	p.Seed = seed
	return synth.Generate(p)
}

// GenerateWorldSpanning is GenerateWorld over a custom revision span:
// multi-year spans let periodic scenarios (transfer windows, award
// seasons) recur, which the periodicity detector needs.
func GenerateWorldSpanning(d Domain, seedEntities int, seed uint64, span Window) (*World, error) {
	p := synth.DefaultParams(d, seedEntities)
	p.Seed = seed
	p.Span = span
	return synth.Generate(p)
}
