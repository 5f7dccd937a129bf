// Package mining implements Algorithm 1 of the paper: grow-and-store mining
// of connected edit patterns over a time window, with the two dedicated
// optimizations that define WiClean's PM variant — join-based computation
// of pattern realizations and frequencies over relational tables, and
// incremental, on-demand construction of the edits graph restricted to
// entity types reachable through frequent patterns. The ablation variants
// of §6.1 (PM−join, PM−inc, PM−inc,−join) are the same algorithm with one
// or both optimizations disabled.
package mining

import (
	"fmt"

	"wiclean/internal/obs"
	"wiclean/internal/relational"
)

// Config controls one mining run.
type Config struct {
	// Tau is the frequency threshold τ: a pattern is frequent when at least
	// this fraction of the seed set appears as its source (Definition 3.2).
	Tau float64

	// TauRel is the relative frequency threshold τ_rel for Definition 3.5.
	TauRel float64

	// MaxActions bounds the number of abstract actions per pattern. The
	// paper's patterns in §6.3 have up to ~6 actions; the bound keeps the
	// candidate space finite.
	MaxActions int

	// MaxAbstraction bounds how many levels above an entity's most
	// specific type the action abstraction climbs (-1 = the full
	// hierarchy). The paper supports the full ~8-level hierarchy; the
	// bound trades pattern nuance for candidate count.
	MaxAbstraction int

	// Strategy selects join execution. The zero value,
	// relational.HashStrategy (PM), probes each template table through its
	// source index; relational.NestedLoop is the PM−join baseline. Both
	// produce the same Result, except for Stats.Join.Comparisons.
	Strategy relational.Strategy

	// JoinWorkers shards the candidate-extension loop inside one window
	// across this many workers, each with its own relational.Engine
	// (<=0 = GOMAXPROCS). It is the only parallelism in mining: windows
	// and joins otherwise run one at a time. Results are byte-identical for
	// every worker count: candidates are enumerated, joined against a
	// frozen snapshot of the template tables, and merged back in
	// deterministic job order.
	JoinWorkers int

	// Incremental enables on-demand graph construction (PM). When false,
	// the full edits graph of the window is materialized up front and
	// handed to the mining loop, as conventional graph miners require
	// (PM−inc).
	Incremental bool

	// NoReduce disables the reduction of action sets before abstraction —
	// an ablation of the §3 reduced-set preprocessing. Reverted rumor
	// pairs then survive into the realization tables, inflating both cost
	// and spurious support.
	NoReduce bool

	// Obs receives the miner's operational metrics (patterns admitted and
	// rejected, realization rows, joins, incremental type pulls). Nil is a
	// safe no-op; the registry is shared by the join workers, so all
	// updates are atomic.
	Obs *obs.Registry
}

// Default mining parameters (the system defaults reported in §4.3/§6.1).
const (
	DefaultTau        = 0.7
	DefaultTauRel     = 0.5
	DefaultMaxActions = 6
)

// PM returns WiClean's full configuration: join-based realization tables
// and incremental graph construction.
func PM(tau float64) Config {
	return Config{
		Tau:            tau,
		TauRel:         DefaultTauRel,
		MaxActions:     DefaultMaxActions,
		MaxAbstraction: 2,
		Incremental:    true,
	}
}

// PMNoJoin is PM with the join optimization disabled: realizations and
// frequencies are computed by main-memory nested loops.
func PMNoJoin(tau float64) Config {
	c := PM(tau)
	c.Strategy = relational.NestedLoop
	return c
}

// PMNoInc is PM with incremental graph construction disabled: the full
// window edits graph is materialized before mining.
func PMNoInc(tau float64) Config {
	c := PM(tau)
	c.Incremental = false
	return c
}

// PMNoIncNoJoin is the conventional graph-mining baseline: full graph
// materialization and nested-loop matching.
func PMNoIncNoJoin(tau float64) Config {
	c := PM(tau)
	c.Incremental = false
	c.Strategy = relational.NestedLoop
	return c
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	if c.Tau <= 0 || c.Tau > 1 {
		return fmt.Errorf("mining: Tau %v out of (0, 1]", c.Tau)
	}
	if c.TauRel < 0 || c.TauRel > 1 {
		return fmt.Errorf("mining: TauRel %v out of [0, 1]", c.TauRel)
	}
	if c.MaxActions < 1 {
		return fmt.Errorf("mining: MaxActions %d < 1", c.MaxActions)
	}
	return nil
}

// Name returns the paper's name for the variant this config encodes.
func (c Config) Name() string {
	optimized := c.Strategy != relational.NestedLoop
	switch {
	case c.Incremental && optimized:
		return "PM"
	case c.Incremental:
		return "PM-join"
	case optimized:
		return "PM-inc"
	default:
		return "PM-inc,-join"
	}
}
