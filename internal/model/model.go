// Package model implements the persistent pattern-model store: a
// versioned, self-describing on-disk serialization of a mining outcome
// (Algorithm 2's converged patterns, windows and thresholds) plus the
// refinement checkpoints that let an interrupted run resume. Mining is the
// expensive offline stage ("very reasonable for offline computation",
// §6.2); the model file is the artifact the serving path (detection,
// assistance, the plug-in backend) warm-starts from without re-mining.
//
// Every file carries a format name, a format version and a provenance
// fingerprint of the inputs it was mined from — the universe (taxonomy +
// entities), the revision span and the semantic mining configuration — so
// a model that no longer matches its data or settings is detected at load
// time rather than silently served.
package model

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"wiclean/internal/action"
	"wiclean/internal/dump"
	"wiclean/internal/mining"
	"wiclean/internal/pattern"
	"wiclean/internal/taxonomy"
	"wiclean/internal/windows"
)

// Format is the self-describing format name stored in every model file.
const Format = "wiclean-model"

// Version is the current model format version. Readers reject newer
// versions (forward compatibility is not promised); older versions are
// upgraded in place as the format evolves.
const Version = 1

// ErrNotModel reports that a file is not a wiclean model at all (wrong or
// missing format name), as distinct from a malformed or stale model.
var ErrNotModel = errors.New("model: not a wiclean model file")

// StaleError reports a provenance mismatch: the model was mined from
// different inputs (universe, span or semantic configuration) than the
// ones it is being loaded against.
type StaleError struct {
	Want Provenance // fingerprint of the current inputs
	Got  Provenance // fingerprint recorded in the file
}

// Error renders the mismatch with enough detail to diagnose which input
// drifted.
func (e *StaleError) Error() string {
	return fmt.Sprintf("model: stale model: provenance %s (universe %s, %d entities, span %v, config %q) does not match current inputs %s (universe %s, %d entities, span %v, config %q)",
		short(e.Got.Hash), short(e.Got.Universe), e.Got.Entities, e.Got.Span, e.Got.Config,
		short(e.Want.Hash), short(e.Want.Universe), e.Want.Entities, e.Want.Span, e.Want.Config)
}

func short(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}

// Provenance fingerprints the inputs of a mining run. Hash covers every
// other field, so two Provenance values are interchangeable iff their
// hashes are equal.
type Provenance struct {
	// Universe is the sha256 (hex) of the registry's universe dump —
	// taxonomy edges parent-first, then entities in ID order — exactly the
	// bytes dump.WriteUniverse emits.
	Universe string `json:"universe"`
	Entities int    `json:"entities"`
	Types    int    `json:"types"`

	// Span is the revision span the model was mined over.
	Span action.Window `json:"span"`

	// Config is the canonical encoding of the semantic mining knobs (the
	// ones that change what is mined, not how fast): window bounds,
	// refinement policy, thresholds, abstraction and reduction settings.
	// Worker counts, join strategy and observability wiring are excluded —
	// results are byte-identical across those by construction.
	Config string `json:"config"`

	// Hash is the sha256 (hex) over the canonical encoding of the fields
	// above; equality of hashes defines model freshness.
	Hash string `json:"hash"`
}

// Fingerprint computes the provenance of mining the given registry over
// span with cfg.
func Fingerprint(reg *taxonomy.Registry, span action.Window, cfg windows.Config) (Provenance, error) {
	uh := sha256.New()
	if err := dump.WriteUniverse(uh, reg); err != nil {
		return Provenance{}, fmt.Errorf("model: hashing universe: %w", err)
	}
	p := Provenance{
		Universe: hex.EncodeToString(uh.Sum(nil)),
		Entities: reg.Len(),
		Types:    reg.Taxonomy().Len(),
		Span:     span,
		Config:   configDigest(cfg),
	}
	p.Hash = p.fingerprint()
	return p, nil
}

// configDigest canonically encodes the semantic configuration fields.
func configDigest(cfg windows.Config) string {
	m := cfg.Mining
	return fmt.Sprintf(
		"minw=%d maxw=%d tau0=%g taumin=%g wf=%g cut=%g steps=%d patience=%d skiprel=%t taurel=%g maxact=%d abs=%d inc=%t noreduce=%t",
		cfg.MinWindow, cfg.MaxWindow, cfg.InitialTau, cfg.MinTau,
		cfg.WindowFactor, cfg.TauCut, cfg.MaxSteps, cfg.Patience, cfg.SkipRelative,
		m.TauRel, m.MaxActions, m.MaxAbstraction, m.Incremental, m.NoReduce)
}

func (p Provenance) fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%d|%d|%d|%d|%s", p.Universe, p.Entities, p.Types, p.Span.Start, p.Span.End, p.Config)
	return hex.EncodeToString(h.Sum(nil))
}

// Matches reports whether the two provenances fingerprint the same inputs.
func (p Provenance) Matches(o Provenance) bool { return p.Hash != "" && p.Hash == o.Hash }

// TypeRecord is one taxonomy edge of the model's type-hierarchy snapshot,
// listed parent-first so the tree replays in order.
type TypeRecord struct {
	Name   string `json:"name"`
	Parent string `json:"parent"`
}

// PatternRecord is one discovered pattern with its support evidence and
// the refinement setting it was (best) observed under. Canonical is the
// pattern's canonical form, stored redundantly so corruption or a drifted
// canonicalization is detected at load time.
type PatternRecord struct {
	Canonical   string          `json:"canonical"`
	Pattern     pattern.Pattern `json:"pattern"`
	Frequency   float64         `json:"frequency"`
	SourceCount int             `json:"source_count"`
	Window      action.Window   `json:"window"`
	Width       action.Time     `json:"width"`
	Tau         float64         `json:"tau"`
}

// ScoredRecord is one most-specific frequent pattern of a final window.
type ScoredRecord struct {
	Canonical   string          `json:"canonical"`
	Pattern     pattern.Pattern `json:"pattern"`
	Frequency   float64         `json:"frequency"`
	SourceCount int             `json:"source_count"`
}

// RelativeRecord is one relative frequent pattern (Definition 3.5) of a
// final window, keyed under its base pattern's canonical form.
type RelativeRecord struct {
	Base        pattern.Pattern `json:"base"`
	Pattern     pattern.Pattern `json:"pattern"`
	RelFreq     float64         `json:"rel_freq"`
	Frequency   float64         `json:"frequency"`
	SourceCount int             `json:"source_count"`
}

// WindowRecord is one final-iteration window with its most-specific
// frequent patterns and relative patterns.
type WindowRecord struct {
	Window   action.Window               `json:"window"`
	Patterns []ScoredRecord              `json:"patterns,omitempty"`
	Relative map[string][]RelativeRecord `json:"relative,omitempty"`
}

// File is the on-disk model: a versioned envelope around the serializable
// part of a windows.Outcome plus the taxonomy snapshot and provenance.
type File struct {
	Format     string     `json:"format"`
	Version    int        `json:"version"`
	Provenance Provenance `json:"provenance"`

	SeedType        taxonomy.Type `json:"seed_type"`
	SeedCount       int           `json:"seed_count"`
	Span            action.Window `json:"span"`
	Width           action.Time   `json:"width"`
	Tau             float64       `json:"tau"`
	RefinementSteps int           `json:"refinement_steps"`

	Types    []TypeRecord    `json:"taxonomy"`
	Patterns []PatternRecord `json:"patterns"`
	Windows  []WindowRecord  `json:"windows,omitempty"`
}

// Snapshot extracts the serializable part of a mining outcome into a model
// file stamped with the given provenance. Realization tables are not
// persisted — detection recomputes them from the store; everything the
// serving path needs (patterns with canonical forms, frequencies, relative
// patterns, the converged setting, the taxonomy) is.
func Snapshot(o *windows.Outcome, reg *taxonomy.Registry, prov Provenance) *File {
	f := &File{
		Format:          Format,
		Version:         Version,
		Provenance:      prov,
		SeedType:        o.SeedType,
		SeedCount:       len(o.Seeds),
		Span:            o.Span,
		Width:           o.Width,
		Tau:             o.Tau,
		RefinementSteps: o.RefinementSteps,
		Types:           taxonomySnapshot(reg.Taxonomy()),
	}
	f.Patterns = make([]PatternRecord, 0, len(o.Discovered))
	for _, d := range o.Discovered {
		f.Patterns = append(f.Patterns, PatternRecord{
			Canonical:   d.Pattern.Canonical(),
			Pattern:     d.Pattern,
			Frequency:   d.Frequency,
			SourceCount: d.SourceCount,
			Window:      d.Window,
			Width:       d.Width,
			Tau:         d.Tau,
		})
	}
	for _, wr := range o.Windows {
		rec := WindowRecord{Window: wr.Window}
		if wr.Result != nil {
			for _, sp := range wr.Result.Patterns {
				rec.Patterns = append(rec.Patterns, ScoredRecord{
					Canonical:   sp.Pattern.Canonical(),
					Pattern:     sp.Pattern,
					Frequency:   sp.Frequency,
					SourceCount: sp.SourceCount,
				})
			}
		}
		if len(wr.Relative) > 0 {
			rec.Relative = make(map[string][]RelativeRecord, len(wr.Relative))
			for key, rels := range wr.Relative {
				rs := make([]RelativeRecord, 0, len(rels))
				for _, r := range rels {
					rs = append(rs, RelativeRecord{
						Base:        r.Base,
						Pattern:     r.Pattern,
						RelFreq:     r.RelFreq,
						Frequency:   r.Frequency,
						SourceCount: r.SourceCount,
					})
				}
				rec.Relative[key] = rs
			}
		}
		f.Windows = append(f.Windows, rec)
	}
	return f
}

// taxonomySnapshot lists the taxonomy's edges BFS from the root, so every
// parent precedes its children and replay is a straight fold.
func taxonomySnapshot(tax *taxonomy.Taxonomy) []TypeRecord {
	var out []TypeRecord
	queue := []taxonomy.Type{taxonomy.Root}
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		if t != taxonomy.Root {
			out = append(out, TypeRecord{Name: string(t), Parent: string(tax.Parent(t))})
		}
		queue = append(queue, tax.Children(t)...)
	}
	return out
}

// Taxonomy rebuilds the type hierarchy from the model's snapshot, making
// the file self-describing: index construction and pattern rendering work
// from the model alone, without the original universe.
func (f *File) Taxonomy() (*taxonomy.Taxonomy, error) {
	tax := taxonomy.New()
	for i, r := range f.Types {
		parent := taxonomy.Type(r.Parent)
		if parent == "" {
			parent = taxonomy.Root
		}
		if err := tax.Add(taxonomy.Type(r.Name), parent); err != nil {
			return nil, fmt.Errorf("model: taxonomy record %d: %w", i, err)
		}
	}
	return tax, nil
}

// Outcome rebuilds the serving-grade outcome: discovered patterns with the
// converged setting, plus the final windows with their (realization-free)
// mining results and relative patterns. Seeds and realization tables are
// not persisted; detection and assistance recompute against the store.
func (f *File) Outcome() *windows.Outcome {
	o := &windows.Outcome{
		SeedType:        f.SeedType,
		Span:            f.Span,
		Width:           f.Width,
		Tau:             f.Tau,
		RefinementSteps: f.RefinementSteps,
	}
	o.Discovered = make([]windows.DiscoveredPattern, 0, len(f.Patterns))
	for _, r := range f.Patterns {
		o.Discovered = append(o.Discovered, windows.DiscoveredPattern{
			Pattern:     r.Pattern,
			Frequency:   r.Frequency,
			SourceCount: r.SourceCount,
			Window:      r.Window,
			Width:       r.Width,
			Tau:         r.Tau,
		})
	}
	for _, wr := range f.Windows {
		res := &mining.Result{SeedType: f.SeedType, Window: wr.Window}
		for _, sr := range wr.Patterns {
			res.Patterns = append(res.Patterns, mining.ScoredPattern{
				Pattern:     sr.Pattern,
				Frequency:   sr.Frequency,
				SourceCount: sr.SourceCount,
			})
		}
		w := windows.WindowResult{Window: wr.Window, Result: res}
		if len(wr.Relative) > 0 {
			w.Relative = make(map[string][]mining.RelativePattern, len(wr.Relative))
			for key, rels := range wr.Relative {
				rs := make([]mining.RelativePattern, 0, len(rels))
				for _, r := range rels {
					rs = append(rs, mining.RelativePattern{
						Base:        r.Base,
						Pattern:     r.Pattern,
						RelFreq:     r.RelFreq,
						Frequency:   r.Frequency,
						SourceCount: r.SourceCount,
					})
				}
				w.Relative[key] = rs
			}
		}
		o.Windows = append(o.Windows, w)
	}
	return o
}

// Verify checks the model against the provenance of the inputs it is about
// to be served with; a mismatch returns a *StaleError.
func (f *File) Verify(current Provenance) error {
	if !current.Matches(f.Provenance) {
		return &StaleError{Want: current, Got: f.Provenance}
	}
	return nil
}

// Validate checks the envelope and every pattern's structure and stored
// canonical form; a relative record's base has its window's key as its
// canonical form. Read calls it; it is exported for models built in
// memory.
func (f *File) Validate() error {
	if f.Format != Format {
		return fmt.Errorf("%w: format %q", ErrNotModel, f.Format)
	}
	if f.Version <= 0 || f.Version > Version {
		return fmt.Errorf("model: unsupported format version %d (supported: 1..%d)", f.Version, Version)
	}
	if f.Span.Width() <= 0 {
		return fmt.Errorf("model: empty span %v", f.Span)
	}
	if _, err := f.Taxonomy(); err != nil {
		return err
	}
	check := func(ctx string, p pattern.Pattern, canonical string) error {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("model: %s: %w", ctx, err)
		}
		if got := p.Canonical(); got != canonical {
			return fmt.Errorf("model: %s: stored canonical form %q does not match pattern %s (recomputed %q)",
				ctx, canonical, p, got)
		}
		return nil
	}
	for i, r := range f.Patterns {
		if err := check(fmt.Sprintf("pattern %d", i), r.Pattern, r.Canonical); err != nil {
			return err
		}
		if r.Width <= 0 {
			return fmt.Errorf("model: pattern %d has width %d", i, r.Width)
		}
	}
	for wi, wr := range f.Windows {
		for i, sr := range wr.Patterns {
			if err := check(fmt.Sprintf("window %d pattern %d", wi, i), sr.Pattern, sr.Canonical); err != nil {
				return err
			}
		}
		for key, rels := range wr.Relative {
			for i, r := range rels {
				ctx := fmt.Sprintf("window %d relative %q[%d]", wi, key, i)
				if err := check(ctx+" base", r.Base, key); err != nil {
					return err
				}
				if err := r.Pattern.Validate(); err != nil {
					return fmt.Errorf("model: %s: %w", ctx, err)
				}
			}
		}
	}
	return nil
}

// Write serializes the model as indented JSON. The encoding is fully
// deterministic (struct fields in declaration order, map keys sorted), so
// save → load → save is byte-identical — the round-trip invariant the CI
// golden job asserts.
func Write(w io.Writer, f *File) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(f); err != nil {
		return fmt.Errorf("model: encoding: %w", err)
	}
	return nil
}

// Read parses and validates a model written by Write; it is the one reader
// of model files. A stream that is not a wiclean model at all fails with
// an error wrapping ErrNotModel, so callers can distinguish "wrong format"
// from "corrupt model".
func Read(r io.Reader) (*File, error) {
	var f File
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("model: decoding: %w", err)
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return &f, nil
}
